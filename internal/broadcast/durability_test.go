package broadcast

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"

	"shadowdb/internal/consensus/synod"
	"shadowdb/internal/loe"
	"shadowdb/internal/msg"
	"shadowdb/internal/store"
	"shadowdb/internal/wire"
)

func durableSeqCfg(prov store.Provider) Config {
	return Config{
		Nodes:       []msg.Loc{"b1"},
		Subscribers: []msg.Loc{"r1"},
		Stable: func(l msg.Loc) store.Stable {
			st, err := prov.Open("seq-" + string(l))
			if err != nil {
				panic(err)
			}
			return st
		},
	}
}

func decideMsg(inst int, msgs ...Bcast) msg.Msg {
	return msg.M(synod.HdrDecide, synod.Decide{Inst: inst, Val: EncodeBatch(msgs)})
}

func deliversIn(outs []msg.Directive) []Deliver {
	var ds []Deliver
	for _, o := range outs {
		if o.M.Hdr == HdrDeliver {
			ds = append(ds, o.M.Body.(Deliver))
		}
	}
	return ds
}

// A rebuilt sequencer resumes delivery contiguously after the journaled
// prefix: old slots are neither re-delivered nor re-decided, and new
// proposals go to fresh slots.
func TestSequencerJournalResumesContiguously(t *testing.T) {
	prov := store.NewMem()
	cfg := durableSeqCfg(prov)
	cl := sequencerClass(cfg)

	p := loe.NewProcess(cl, "b1")
	var outs []msg.Directive
	p, outs = p.Step(decideMsg(0, Bcast{From: "c1", Seq: 1, Payload: []byte("x")}))
	if ds := deliversIn(outs); len(ds) != 1 || ds[0].Slot != 0 {
		t.Fatalf("slot 0 delivery: %v", ds)
	}
	p, outs = p.Step(decideMsg(1, Bcast{From: "c1", Seq: 2, Payload: []byte("y")}))
	if ds := deliversIn(outs); len(ds) != 1 || ds[0].Slot != 1 {
		t.Fatalf("slot 1 delivery: %v", ds)
	}
	_ = p

	// Crash: rebuild from the journal.
	fresh := loe.NewProcess(cl, "b1")

	// A duplicate announcement of a journaled slot is ignored, not
	// re-delivered.
	fresh, outs = fresh.Step(decideMsg(1, Bcast{From: "c1", Seq: 2, Payload: []byte("y")}))
	if ds := deliversIn(outs); len(ds) != 0 {
		t.Fatalf("journaled slot re-delivered after restart: %v", ds)
	}
	// The next decision continues exactly where the journal ends.
	fresh, outs = fresh.Step(decideMsg(2, Bcast{From: "c1", Seq: 3, Payload: []byte("z")}))
	ds := deliversIn(outs)
	if len(ds) != 1 || ds[0].Slot != 2 {
		t.Fatalf("post-restart delivery: %v, want exactly slot 2", ds)
	}
	// A new client message is proposed for a fresh slot, never a
	// journaled one.
	_, outs = fresh.Step(msg.M(HdrBcast, Bcast{From: "c2", Seq: 1, Payload: []byte("w")}))
	for _, o := range outs {
		if prop, ok := o.M.Body.(synod.Propose); ok && prop.Inst <= 2 {
			t.Fatalf("restarted sequencer re-proposed slot %d", prop.Inst)
		}
	}
}

// Journal compaction (snapshot + rotation) preserves out-of-order
// decided slots across a restart.
func TestSequencerJournalCompaction(t *testing.T) {
	prov := store.NewMem()
	cfg := durableSeqCfg(prov)
	cl := sequencerClass(cfg)

	p := loe.NewProcess(cl, "b1")
	// Decide slot 1 before slot 0 so an out-of-order slot is in the
	// decided map when the compaction threshold is crossed, then fill
	// in the rest contiguously.
	p, _ = p.Step(decideMsg(1, Bcast{From: "c1", Seq: 2, Payload: []byte("b")}))
	for i := 0; i < seqSnapEvery+4; i++ {
		if i == 1 {
			continue
		}
		p, _ = p.Step(decideMsg(i, Bcast{From: "c1", Seq: int64(i + 1), Payload: []byte("v")}))
	}
	_ = p

	fresh := loe.NewProcess(cl, "b1")
	_, outs := fresh.Step(decideMsg(seqSnapEvery+4, Bcast{From: "c1", Seq: 99, Payload: []byte("tail")}))
	ds := deliversIn(outs)
	if len(ds) != 1 || ds[0].Slot != seqSnapEvery+4 {
		t.Fatalf("delivery after compacted restart: %v, want slot %d", ds, seqSnapEvery+4)
	}
}

func TestDecodeBatchMalformed(t *testing.T) {
	for _, bad := range []string{"", "garbage", "\x00\x01\x02", string(make([]byte, 64))} {
		if _, err := DecodeBatch(bad); err == nil {
			t.Errorf("DecodeBatch(%q) accepted malformed input", bad)
		}
	}
	// Round trip still works.
	in := []Bcast{{From: "c", Seq: 9, Payload: []byte("p")}}
	out, err := DecodeBatch(EncodeBatch(in))
	if err != nil || len(out) != 1 || out[0].From != in[0].From || out[0].Seq != in[0].Seq || string(out[0].Payload) != string(in[0].Payload) {
		t.Fatalf("round trip: %v %v", out, err)
	}
}

// A sequencer restarted over a journal whose decided batches were
// written by the earlier gob codec must refuse to start, naming the
// format, whether the batch sits in a journal record or in the
// compacted snapshot: replaying it as an empty slot would drop the
// committed messages it carries.
func TestSequencerRefusesOldFormatJournal(t *testing.T) {
	gobOf := func(v any) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	oldBatch := string(gobOf([]Bcast{{From: "c1", Seq: 1, Payload: []byte("x")}}))
	for name, seed := range map[string]func(store.Stable) error{
		"record": func(st store.Stable) error {
			return st.Append(gobOf(seqRecord{Inst: 0, Val: oldBatch}))
		},
		"snapshot": func(st store.Stable) error {
			return st.SaveSnapshot(gobOf(seqSnapshot{Next: 0, PropSlot: 1, Decided: map[int]string{1: oldBatch}}))
		},
	} {
		prov := store.NewMem()
		st, err := prov.Open("seq-b1")
		if err != nil {
			t.Fatal(err)
		}
		if err := seed(st); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				err, _ := recover().(error)
				if !errors.Is(err, wire.ErrFormat) {
					t.Errorf("%s: restart over a gob-era journal: %v, want wire.ErrFormat", name, err)
				}
			}()
			loe.NewProcess(sequencerClass(durableSeqCfg(prov)), "b1")
		}()
	}
}
