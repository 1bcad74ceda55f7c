package bench

import (
	"time"

	"shadowdb/internal/bench/tpcc"
	"shadowdb/internal/core"
	"shadowdb/internal/des"
	"shadowdb/internal/msg"
	"shadowdb/internal/sqldb"
)

// Fig. 10(a): an execution of ShadowDB-PBR in which the primary crashes.
// Ten clients run the micro-benchmark against H2 (primary) / HSQLDB
// (backup) / Derby (spare); the primary crashes at 15 s, the backup
// detects the crash after the configured 10 s, the new configuration is
// delivered by the broadcast service, the spare receives the full
// database snapshot, and the clients resume.
//
// Fig. 10(b): the overhead of state transfer as a function of database
// size, for 16-byte and 1-kilobyte rows, with ~50 KB batches.

// Fig10aConfig scales the recovery experiment.
type Fig10aConfig struct {
	Rows         int
	Clients      int
	CrashAt      time.Duration
	SuspectAfter time.Duration
	RunFor       time.Duration
}

// DefaultFig10a mirrors the paper.
func DefaultFig10a() Fig10aConfig {
	return Fig10aConfig{
		Rows: 50_000, Clients: 10,
		CrashAt: 15 * time.Second, SuspectAfter: 10 * time.Second,
		RunFor: 60 * time.Second,
	}
}

// QuickFig10a keeps tests fast.
func QuickFig10a() Fig10aConfig {
	return Fig10aConfig{
		Rows: 2_000, Clients: 4,
		CrashAt: 2 * time.Second, SuspectAfter: time.Second,
		RunFor: 10 * time.Second,
	}
}

// Fig10aResult is the recovery timeline.
type Fig10aResult struct {
	// Series is committed transactions per second, per 1 s bin.
	Series []float64
	// Event times on the virtual clock.
	CrashAt     time.Duration
	SuspectedAt time.Duration
	ConfigAt    time.Duration
	ResumedAt   time.Duration
	// ConfigLatency is propose->deliver for the new configuration.
	ConfigLatency time.Duration
	// TransferTime is the post-config recovery time (election, snapshot,
	// resume) — the "group reconfiguration and state transfer" phase.
	TransferTime time.Duration
	// Committed is the total committed count.
	Committed int64
}

// Fig10a runs the recovery experiment.
func Fig10a(cfg Fig10aConfig) Fig10aResult {
	timing := core.Timing{
		HeartbeatEvery: 500 * time.Millisecond,
		SuspectAfter:   cfg.SuspectAfter,
		ClientRetry:    time.Second,
	}
	// The paper's diversity deployment: H2 primary, HSQLDB backup, Derby
	// spare.
	d := newShadow(shadowSpec{mode: core.ModePBR, engines: []string{"h2", "hsqldb", "derby"},
		reg: core.BankRegistry(), setup: bankSetup(cfg.Rows), members: 2, timing: timing})

	timeline := des.NewTimeline(time.Second)
	stats := &loadStats{timeline: timeline}
	work := func(i int) Workload { return MicroWorkload(cfg.Rows, int64(i)*31337) }
	d.clients(stats, cfg.Clients, 1<<30, work, shadowSessions(core.ModePBR, d.rloc, d.bloc, time.Second))

	res := Fig10aResult{CrashAt: cfg.CrashAt, SuspectedAt: -1, ConfigAt: -1, ResumedAt: -1}
	d.sim.After(cfg.CrashAt, func() { d.clu.Node("r1").Crash() })

	// Sample the backup's protocol state every 20 ms to extract the
	// timeline events.
	r2 := d.pbr.Replicas["r2"]
	d.every(0, 20*time.Millisecond, func() bool {
		now := d.sim.Now()
		if res.SuspectedAt < 0 && now > cfg.CrashAt && r2.Stopped() {
			res.SuspectedAt = now
		}
		if res.ConfigAt < 0 && r2.ConfigNow().Seq > 0 {
			res.ConfigAt = now
		}
		if res.ConfigAt >= 0 && res.ResumedAt < 0 && r2.IsPrimary() && !r2.Stopped() {
			res.ResumedAt = now
		}
		return now < cfg.RunFor
	})

	d.sim.Run(cfg.RunFor, 500_000_000)
	res.Series = timeline.Series()
	res.Committed = stats.committed
	if res.SuspectedAt >= 0 && res.ConfigAt >= 0 {
		res.ConfigLatency = res.ConfigAt - res.SuspectedAt
	}
	if res.ConfigAt >= 0 && res.ResumedAt >= 0 {
		res.TransferTime = res.ResumedAt - res.ConfigAt
	}
	return res
}

// ------------------------------------------------------------- Fig 10(b) --

// Fig10bPoint is one state-transfer measurement.
type Fig10bPoint struct {
	Rows     int
	RowBytes int
	Seconds  float64
}

// Fig10bConfig scales the sweep.
type Fig10bConfig struct {
	RowCounts []int
	// TPCC also measures the TPC-C 1-warehouse transfer (paper: 54.5 s).
	TPCC bool
}

// DefaultFig10b mirrors the paper's 500..500 000 row sweep.
func DefaultFig10b() Fig10bConfig {
	return Fig10bConfig{RowCounts: []int{500, 5_000, 50_000, 500_000}, TPCC: true}
}

// QuickFig10b keeps tests fast.
func QuickFig10b() Fig10bConfig {
	return Fig10bConfig{RowCounts: []int{500, 5_000}}
}

// Fig10bResult holds the two row-size curves plus the optional TPC-C
// figure.
type Fig10bResult struct {
	Small   []Fig10bPoint // 16-byte rows, 3 columns
	Large   []Fig10bPoint // 1-kilobyte rows, 4 columns
	TPCCSec float64       // 0 when not measured
}

// Fig10b measures state-transfer time against database size.
func Fig10b(cfg Fig10bConfig) Fig10bResult {
	var res Fig10bResult
	for _, n := range cfg.RowCounts {
		res.Small = append(res.Small, Fig10bPoint{
			Rows: n, RowBytes: 16,
			Seconds: measureTransfer(func(db *sqldb.DB) error { return setupSmallRows(db, n) }),
		})
		res.Large = append(res.Large, Fig10bPoint{
			Rows: n, RowBytes: 1024,
			Seconds: measureTransfer(func(db *sqldb.DB) error { return setupLargeRows(db, n) }),
		})
	}
	if cfg.TPCC {
		res.TPCCSec = measureTransfer(func(db *sqldb.DB) error {
			return tpccSetupForTransfer(db)
		})
	}
	return res
}

// setupSmallRows loads n 16-byte rows with 3 columns (the micro table).
func setupSmallRows(db *sqldb.DB, n int) error {
	if _, err := db.Exec("CREATE TABLE t (id INT PRIMARY KEY, owner TEXT, balance INT)"); err != nil {
		return err
	}
	// 16 bytes modeled: 8 (id) + ~0 shared owner + 8 (balance); use a
	// short owner so RowBytes ~ 16-20.
	rows := make([][]sqldb.Value, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, []sqldb.Value{int64(i), "ab", int64(1000)})
	}
	return db.InsertBatch("t", rows)
}

// setupLargeRows loads n 1 KB rows with 4 columns. The payload string is
// shared across rows to keep host memory flat; size modeling uses its
// length.
func setupLargeRows(db *sqldb.DB, n int) error {
	if _, err := db.Exec("CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT, payload TEXT)"); err != nil {
		return err
	}
	payload := string(make([]byte, 1000))
	rows := make([][]sqldb.Value, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, []sqldb.Value{int64(i), int64(i), int64(i), payload})
	}
	return db.InsertBatch("t", rows)
}

// tpccSetupForTransfer loads the 1-warehouse TPC-C database.
func tpccSetupForTransfer(db *sqldb.DB) error {
	return tpcc.Setup(db, tpcc.Full())
}

// measureTransfer times a full state transfer from a populated H2 sender
// to an empty receiver over the simulated gigabit link, including
// sender-side serialization and receiver-side insertion costs.
func measureTransfer(setup func(*sqldb.DB) error) float64 {
	d := newDeployment()
	src := openDB("h2", setup)
	receiver := core.NewJoiningSMRReplica("dst", openDB("h2", nil), core.Registry{})
	d.host("dst", receiver, func(msg.Msg) time.Duration { return receiver.LastCost() })

	// The sender serializes (service time = serialization cost), then the
	// batches flow through the link.
	d.clu.AddCostedNode("src", 1, func(des.Envelope) ([]msg.Directive, time.Duration) {
		return core.SnapshotDirectives(src, "dst", 0, 0, 1, 0)
	})
	d.clu.Inject("src", msg.M("go", nil))

	done := -1.0
	d.every(0, time.Millisecond, func() bool {
		if receiver.Active() {
			done = d.sim.Now().Seconds()
			return false
		}
		return true
	})
	d.sim.Run(0, 100_000_000)
	if done < 0 {
		done = d.sim.Now().Seconds()
	}
	return done
}
