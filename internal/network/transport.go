// Package network provides the real transports of the system: an
// in-process channel hub for single-process deployments and tests, and a
// TCP transport with length-prefixed gob frames for distributed
// deployments ("The participants communicate over TCP channels", Section
// III). Both satisfy Transport, which package runtime hosts GPM processes
// on.
package network

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
)

// Transport moves envelopes between locations. Send is asynchronous and
// best-effort: the crash-failure model means undeliverable messages are
// dropped, not retried forever.
type Transport interface {
	// Send queues an envelope for delivery.
	Send(env msg.Envelope) error
	// Receive returns the channel of inbound envelopes. It is closed by
	// Close.
	Receive() <-chan msg.Envelope
	// Close releases the transport's resources.
	Close() error
}

// BatchSender is an optional Transport extension: a transport that can
// frame several envelopes bound for the same destination into a single
// wire write. Hosts probe for it with a type assertion and fall back to
// per-envelope Send when absent, so batching never changes semantics —
// only the number of syscalls and frames.
type BatchSender interface {
	// SendBatch queues several envelopes (all with the same To) as one
	// frame. Like Send it is asynchronous and best-effort.
	SendBatch(envs []msg.Envelope) error
}

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("network: transport closed")

// ---------------------------------------------------------- channel hub --

// Hub is an in-process network: every location registers and gets a
// Transport whose sends are routed through Go channels. Useful for tests,
// examples, and single-process deployments. Links are reliable and FIFO
// (see mailbox): like the TCP transport, which applies backpressure
// rather than dropping, a slow receiver delays its messages but never
// loses them.
type Hub struct {
	mu     sync.Mutex
	inbox  map[msg.Loc]*mailbox
	closed bool
	// Dropped counts messages to unknown destinations. Atomic: benchmark
	// drivers read it while sender goroutines run.
	Dropped atomic.Int64
	drops   *obs.Counter
}

// hubInboxCap is the receive channel's capacity; sends beyond it queue
// in the mailbox.
const hubInboxCap = 1024

// mailbox is one location's inbox. A send goes straight into the
// receive channel while the channel has room and nothing is queued;
// otherwise it joins an unbounded queue that a drain goroutine, running
// only while the queue is non-empty, feeds into the channel in order.
// Senders therefore never block (a cycle of full inboxes cannot
// deadlock) and never drop. All puts and close run under Hub.mu.
type mailbox struct {
	ch   chan msg.Envelope
	mu   sync.Mutex // guards q
	q    []msg.Envelope
	stop chan struct{}
	wg   sync.WaitGroup
}

func newMailbox() *mailbox {
	return &mailbox{ch: make(chan msg.Envelope, hubInboxCap), stop: make(chan struct{})}
}

func (m *mailbox) put(env msg.Envelope) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.q) == 0 {
		select {
		case m.ch <- env:
			return
		default:
		}
	}
	m.q = append(m.q, env)
	if len(m.q) == 1 {
		m.wg.Add(1)
		go m.drain()
	}
}

// drain feeds the queue into the channel and exits once it is empty.
// The head stays queued until it is in the channel, so a put that
// finds the queue empty cannot overtake it.
func (m *mailbox) drain() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		if len(m.q) == 0 {
			m.q = nil
			m.mu.Unlock()
			return
		}
		env := m.q[0]
		m.mu.Unlock()
		select {
		case m.ch <- env:
		case <-m.stop:
			return
		}
		m.mu.Lock()
		m.q[0] = msg.Envelope{}
		m.q = m.q[1:]
		m.mu.Unlock()
	}
}

// close discards anything still queued, waits for the drain goroutine
// and closes the receive channel.
func (m *mailbox) close() {
	close(m.stop)
	m.wg.Wait()
	close(m.ch)
}

// NewHub creates an empty hub.
func NewHub() *Hub {
	return &Hub{inbox: make(map[msg.Loc]*mailbox), drops: obs.C("net.hub_drops")}
}

// Register joins a location to the hub.
func (h *Hub) Register(l msg.Loc) (Transport, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	if _, dup := h.inbox[l]; dup {
		return nil, fmt.Errorf("network: location %q already registered", l)
	}
	box := newMailbox()
	h.inbox[l] = box
	return &hubTransport{hub: h, self: l, ch: box.ch}, nil
}

// Close shuts the hub and every registered transport.
func (h *Hub) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	h.closed = true
	for _, box := range h.inbox {
		box.close()
	}
	return nil
}

func (h *Hub) send(env msg.Envelope) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return ErrClosed
	}
	box, ok := h.inbox[env.To]
	if !ok {
		h.Dropped.Add(1)
		h.drops.Inc()
		return nil // unknown destination: dropped, as on a real network
	}
	box.put(env)
	return nil
}

type hubTransport struct {
	hub    *Hub
	self   msg.Loc
	ch     chan msg.Envelope
	closed sync.Once
	dead   atomic.Bool
}

var _ Transport = (*hubTransport)(nil)

func (t *hubTransport) Send(env msg.Envelope) error {
	if t.dead.Load() {
		return ErrClosed
	}
	env.From = t.self
	return t.hub.send(env)
}

func (t *hubTransport) Receive() <-chan msg.Envelope { return t.ch }

func (t *hubTransport) Close() error {
	t.closed.Do(func() {
		t.dead.Store(true)
		t.hub.mu.Lock()
		defer t.hub.mu.Unlock()
		if box, ok := t.hub.inbox[t.self]; ok {
			delete(t.hub.inbox, t.self)
			box.close()
		}
	})
	return nil
}
