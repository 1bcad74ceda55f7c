package broadcast

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"shadowdb/internal/store"
)

// Sequencer durability. With Config.Stable set, each service node
// journals every decided slot (as the raw consensus value) before
// fanning out its Deliver notifications, and compacts the journal into
// a snapshot of its delivery frontier every seqSnapEvery decisions. A
// re-instantiated node — a real process restart reopening its data
// directory, or a DES/verify rebuild over a store.Mem — restores the
// journal and resumes contiguously: journaled slots are neither
// re-decided nor re-proposed, and delivery continues at the first slot
// after the journaled prefix. Subscribers that missed Deliver fan-out
// during the downtime recover through their own catch-up protocol (the
// SMR replica's WAL + delta fetch), not by sequencer redelivery.

// seqRecord journals one decision: the instance and the consensus
// value (an encoded batch).
type seqRecord struct {
	Inst int
	Val  string
}

// seqSnapshot is the compacted journal: the delivery frontier, the
// proposal high-water mark, and any decided-but-not-yet-contiguous
// slots (still encoded as consensus values).
type seqSnapshot struct {
	Next     int
	PropSlot int
	Decided  map[int]string
}

// seqSnapEvery is how many journal appends trigger a compaction.
const seqSnapEvery = 64

// journal appends one decision write-ahead of its delivery. A storage
// failure panics: a sequencer that cannot journal must not deliver.
func (s *seqState) journal(inst int, val string) {
	if s.st == nil {
		return
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(seqRecord{Inst: inst, Val: val}); err != nil {
		panic(fmt.Sprintf("broadcast: encode journal record: %v", err))
	}
	if err := s.st.Append(buf.Bytes()); err != nil {
		panic(fmt.Sprintf("broadcast: sequencer journal: %v", err))
	}
	s.sinceSnap++
	if s.sinceSnap < seqSnapEvery {
		return
	}
	snap := seqSnapshot{Next: s.next, PropSlot: s.propSlot, Decided: make(map[int]string)}
	for slot, b := range s.decided {
		snap.Decided[slot] = EncodeBatch(b)
	}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		panic(fmt.Sprintf("broadcast: encode journal snapshot: %v", err))
	}
	if err := s.st.SaveSnapshot(buf.Bytes()); err != nil {
		panic(fmt.Sprintf("broadcast: sequencer snapshot: %v", err))
	}
	s.sinceSnap = 0
}

// restore rebuilds the sequencer's decided log from stable storage:
// snapshot first, then the journal tail, then the delivery frontier is
// advanced past the contiguous prefix without re-delivering it.
func (s *seqState) restore(st store.Stable) {
	s.st = st
	if b, ok, err := st.Snapshot(); err == nil && ok {
		var snap seqSnapshot
		if gob.NewDecoder(bytes.NewReader(b)).Decode(&snap) == nil {
			s.next = snap.Next
			s.propSlot = snap.PropSlot
			for slot, val := range snap.Decided {
				if slot < s.next {
					continue
				}
				s.decided[slot] = restoredBatch(slot, val)
			}
		}
	}
	err := st.Replay(func(rec []byte) error {
		var r seqRecord
		if gob.NewDecoder(bytes.NewReader(rec)).Decode(&r) != nil {
			return nil // skip undecodable records, keep the rest
		}
		if r.Inst > s.propSlot {
			s.propSlot = r.Inst
		}
		if r.Inst < s.next {
			return nil
		}
		s.decided[r.Inst] = restoredBatch(r.Inst, r.Val)
		return nil
	})
	if err != nil {
		panic(fmt.Sprintf("broadcast: sequencer replay: %v", err))
	}
	// The journaled prefix was delivered (or is recoverable by
	// subscribers): resume after it instead of re-delivering.
	for {
		if _, ok := s.decided[s.next]; !ok {
			break
		}
		delete(s.decided, s.next)
		s.next++
	}
	if s.propSlot < s.next-1 {
		s.propSlot = s.next - 1
	}
}

// restoredBatch decodes a journaled decision. A batch that does not
// decode — in particular one written in an older release's format —
// stops the restart: replaying it as an empty slot would silently drop
// the committed messages it carries.
func restoredBatch(slot int, val string) []Bcast {
	batch, err := DecodeBatch(val)
	if err != nil {
		panic(fmt.Errorf("broadcast: sequencer journal slot %d: %w", slot, err))
	}
	return batch
}
