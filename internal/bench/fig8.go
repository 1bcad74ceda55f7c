package bench

import "shadowdb/internal/broadcast"

// Fig. 8: "The performance of the broadcast service with Paxos." Clients
// broadcast 140-byte messages and wait for their delivery notification;
// the three curves are the interpreted, interpreted-optimized, and
// compiled (Lisp) services. We report mean delivery latency against
// delivered messages per second for 1..43 clients.

// Fig8Point is one measurement.
type Fig8Point struct {
	Clients    int
	Throughput float64
	MeanLatMs  float64
}

// Fig8Result maps each execution mode to its curve.
type Fig8Result struct {
	Costs  BcastCosts
	Curves map[broadcast.Mode][]Fig8Point
}

// Fig8Config scales the experiment.
type Fig8Config struct {
	Clients []int
	MsgsPer int
}

// DefaultFig8 is the paper's sweep (1 to 43 clients).
func DefaultFig8() Fig8Config {
	return Fig8Config{Clients: []int{1, 2, 4, 8, 16, 24, 32, 43}, MsgsPer: 200}
}

// QuickFig8 keeps tests fast.
func QuickFig8() Fig8Config {
	return Fig8Config{Clients: []int{1, 4, 16}, MsgsPer: 40}
}

// fig8Modes is the presentation order of the three curves; renderers and
// reports range over it instead of the Curves map so output is stable.
var fig8Modes = []broadcast.Mode{broadcast.Interpreted, broadcast.InterpretedOpt, broadcast.Compiled}

// Fig8 runs the experiment.
func Fig8(cfg Fig8Config) Fig8Result {
	res := Fig8Result{Costs: Calibrate(), Curves: make(map[broadcast.Mode][]Fig8Point)}
	for _, mode := range fig8Modes {
		for _, n := range cfg.Clients {
			res.Curves[mode] = append(res.Curves[mode], fig8Run(mode, n, cfg.MsgsPer))
		}
	}
	return res
}

func fig8Run(mode broadcast.Mode, clients, msgsPer int) Fig8Point {
	_, stats, _ := broadcastRun(broadcast.Config{}, mode, clients, msgsPer, 0)
	p := stats.point(clients)
	return Fig8Point{Clients: clients, Throughput: p.Throughput, MeanLatMs: p.MeanLatMs}
}
