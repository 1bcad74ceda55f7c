package main

import (
	"fmt"
	"testing"
)

// sequence renders the first n requests of a generator.
func sequence(next func() op, n int) []string {
	out := make([]string, n)
	for i := range out {
		o := next()
		out[i] = fmt.Sprintf("%s%v", o.typ, o.args)
	}
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSeedDeterminism checks every workload generator: the same seed and
// session give the same request sequence, and another seed or another
// session gives a different one.
func TestSeedDeterminism(t *testing.T) {
	gens := map[string]func(seed int64, session int) func() op{
		"bank":      func(s int64, c int) func() op { return newBankGen(s, c, 0).next },
		"bank-read": func(s int64, c int) func() op { return newBankGen(s, c, 20).next },
		"tpcc":      func(s int64, c int) func() op { return newTPCCGen(s, c).next },
	}
	const n = 500
	for name, mk := range gens {
		a := sequence(mk(7, 0), n)
		if !equal(a, sequence(mk(7, 0), n)) {
			t.Errorf("%s: seed 7 gave two different sequences", name)
		}
		if equal(a, sequence(mk(8, 0), n)) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", name)
		}
		if equal(a, sequence(mk(7, 1), n)) {
			t.Errorf("%s: sessions 0 and 1 of seed 7 gave the same sequence", name)
		}
	}
}

// TestOpenLoopScheduleIsSeeded checks that the open-loop schedule of the
// TCP deployment is a function of the seed alone.
func TestOpenLoopScheduleIsSeeded(t *testing.T) {
	render := func(seed int64) []string {
		var out []string
		for s := 0; s < sessions; s++ {
			for _, r := range tcpSchedule(seed, s, 2) {
				out = append(out, fmt.Sprintf("%d %v %s%v", s, r.at, r.op.typ, r.op.args))
			}
		}
		return out
	}
	a := render(3)
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if !equal(a, render(3)) {
		t.Error("seed 3 gave two different schedules")
	}
	if equal(a, render(4)) {
		t.Error("seeds 3 and 4 gave the same schedule")
	}
}
