package main

import (
	"math/rand"

	"shadowdb/internal/bench/tpcc"
)

// op is one generated request: a registered transaction type and its
// arguments. The program under test receives nothing else.
type op struct {
	typ  string
	args []any
	read bool
}

// The bank population of the paper's micro-benchmark.
const (
	bankAccounts = 10_000
	bankInitial  = 1000
)

// tpccScale is TPC-C at a reduced scale: one warehouse with the full
// ten districts, and fewer customers and items so that a cluster loads
// in well under a second.
var tpccScale = tpcc.Scale{Warehouses: 1, DistrictsPerW: 10, CustomersPerD: 300, Items: 10_000, OrdersPerD: 300}

// streamSeed derives an independent seed for one client session from the
// workload seed (splitmix64 finalizer, so nearby seeds diverge).
func streamSeed(seed int64, session int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(session+1)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64(z ^ z>>31)
}

// bankGen draws bank requests for one session: deposits of 1..100 to an
// account chosen uniformly, and readPct percent balance reads.
type bankGen struct {
	rng     *rand.Rand
	readPct int
}

func newBankGen(seed int64, session, readPct int) *bankGen {
	return &bankGen{rng: rand.New(rand.NewSource(streamSeed(seed, session))), readPct: readPct}
}

func (g *bankGen) next() op {
	id := int64(g.rng.Intn(bankAccounts))
	if g.rng.Intn(100) < g.readPct {
		return op{typ: "balance", args: []any{id}, read: true}
	}
	return op{typ: "deposit", args: []any{id, int64(1 + g.rng.Intn(100))}}
}

// tpccGen draws the standard TPC-C mix for one session.
type tpccGen struct{ g *tpcc.Generator }

func newTPCCGen(seed int64, session int) *tpccGen {
	return &tpccGen{g: tpcc.NewGenerator(tpccScale, streamSeed(seed, session))}
}

func (g *tpccGen) next() op {
	typ, args := g.g.Next()
	return op{typ: typ, args: args, read: typ == "order_status" || typ == "stock_level"}
}
