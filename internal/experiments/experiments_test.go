package experiments

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kagura/internal/ehs"
	"kagura/internal/simsvc"
)

// quickLab returns a shared Lab for the smoke tests (memoization makes the
// shared instance much cheaper than per-test labs).
var sharedLab = New(Quick())

func TestIDsResolve(t *testing.T) {
	for _, id := range IDs() {
		id := id
		if _, err := sharedLab.Run(id); err != nil {
			t.Fatalf("experiment %s failed: %v", id, err)
		}
	}
}

func TestUnknownID(t *testing.T) {
	if _, err := sharedLab.Run("fig99"); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

func TestTablesRender(t *testing.T) {
	for _, id := range []string{"fig03", "fig11", "area"} {
		r, err := sharedLab.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		tbl := r.Render()
		if tbl.ID == "" || len(tbl.Header) == 0 || len(tbl.Rows) == 0 {
			t.Fatalf("%s rendered an empty table", id)
		}
		s := tbl.String()
		if !strings.Contains(s, tbl.Title) {
			t.Fatalf("%s: rendered text missing title", id)
		}
	}
}

func TestFig13Shapes(t *testing.T) {
	res, err := sharedLab.Fig13Performance()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(sharedLab.Options().Apps) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(sharedLab.Options().Apps))
	}
	tbl := res.Render()
	if got := len(tbl.Rows); got != len(res.Rows)+1 { // + MEAN
		t.Fatalf("table rows = %d", got)
	}
}

func TestHeadlineMemoized(t *testing.T) {
	// Fig 15 must not re-simulate after Fig 13 ran: cache must already hold
	// its results and the call should be near-instant (structural check:
	// same row count and app order).
	f13, err := sharedLab.Fig13Performance()
	if err != nil {
		t.Fatal(err)
	}
	f15, err := sharedLab.Fig15MissRates()
	if err != nil {
		t.Fatal(err)
	}
	if len(f13.Rows) != len(f15.Rows) {
		t.Fatal("headline rows differ between figures")
	}
	for i := range f13.Rows {
		if f13.Rows[i].App != f15.Rows[i].App {
			t.Fatal("app order differs")
		}
	}
}

func TestFig14DistributionsSane(t *testing.T) {
	res, err := sharedLab.Fig14CycleLengths()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Cycles == 0 {
			t.Fatalf("%s: no power cycles recorded", row.App)
		}
		if !(row.P10 <= row.P50 && row.P50 <= row.P90) {
			t.Fatalf("%s: percentiles out of order: %+v", row.App, row)
		}
		if row.P50 < 500 || row.P50 > 100_000 {
			t.Errorf("%s: median cycle length %v outside the paper's thousands-of-instructions regime", row.App, row.P50)
		}
	}
}

func TestFig12WithinSharesSane(t *testing.T) {
	res, err := sharedLab.Fig12CycleConsistency()
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanLoadWithin < 0.3 {
		t.Errorf("load within-20%% share %.2f too low; neighboring cycles should be consistent", res.MeanLoadWithin)
	}
	for _, row := range res.Rows {
		for _, v := range []float64{row.LoadWithin, row.StoreWithin, row.CPIWithin} {
			if v < 0 || v > 1 {
				t.Fatalf("%s: share out of range: %+v", row.App, row)
			}
		}
	}
}

func TestFig17IntensityOrdering(t *testing.T) {
	res, err := sharedLab.Fig17ArithmeticIntensity()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 6 {
		t.Fatalf("apps = %d, want 6", len(res.Apps))
	}
	// jpegd must be the most memory-bound, strings the least.
	if res.Intensity[0] >= res.Intensity[len(res.Intensity)-1] {
		t.Fatalf("intensity ordering broken: %v", res.Intensity)
	}
}

func TestFig18CutsWithinRange(t *testing.T) {
	res, err := sharedLab.Fig18CompressionReduction()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.CompressionCut > 1.0 {
			t.Fatalf("%s: cut %v exceeds 100%%", row.App, row.CompressionCut)
		}
	}
}

func TestTableIIIMonotone(t *testing.T) {
	res, err := sharedLab.TableIIICapLeakage()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shares) != 6 {
		t.Fatalf("rows = %d", len(res.Shares))
	}
	// Leakage share must grow with capacitance (Table III).
	if !(res.Shares[0] < res.Shares[len(res.Shares)-1]) {
		t.Fatalf("leakage share not growing: %v", res.Shares)
	}
}

func TestSweepResultRender(t *testing.T) {
	r := &SweepResult{
		ID: "x", Title: "t", Configs: []string{"a", "b"},
		Labels: []string{"l1"}, Speedups: [][]float64{{0.01, 0.02}},
	}
	tbl := r.Render()
	if len(tbl.Rows) != 1 || len(tbl.Rows[0]) != 3 {
		t.Fatalf("rendered %+v", tbl.Rows)
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.scale() != 1 || len(o.seeds()) != 3 || o.traceName() != "RFHome" {
		t.Fatal("zero options not defaulted")
	}
	if len(o.appNames()) != 20 {
		t.Fatalf("apps = %d", len(o.appNames()))
	}
	if len(o.subsetNames()) != 6 {
		t.Fatalf("subset = %v", o.subsetNames())
	}
}

func TestRelDiff(t *testing.T) {
	if relDiff(0, 0) != 0 || relDiff(5, 0) != 1 {
		t.Fatal("zero-base cases wrong")
	}
	if d := relDiff(110, 100); d < 0.099 || d > 0.101 {
		t.Fatalf("relDiff = %v", d)
	}
}

func TestPercentileAndMean(t *testing.T) {
	xs := []float64{3, 1, 2}
	if mean(xs) != 2 {
		t.Fatal("mean wrong")
	}
	if percentile(xs, 0.5) != 2 || percentile(xs, 0) != 1 || percentile(xs, 1) != 3 {
		t.Fatal("percentile wrong")
	}
	if mean(nil) != 0 || percentile(nil, 0.5) != 0 {
		t.Fatal("empty cases wrong")
	}
}

// The lab synthesizes each (trace, seed) once and shares it across runs.
func TestLabSharesTraces(t *testing.T) {
	l := New(Quick())
	defer l.Close()
	a, err := l.trace("RFHome", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.trace("RFHome", 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := l.trace("RFHome", 2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a == c {
		t.Fatal("traces must be memoized per (name, seed)")
	}
	if _, err := l.trace("wind", 1); err == nil {
		t.Fatal("unknown trace should error")
	}
}

// Every experiment submits all the simulations it computes in one fan-out:
// on a 1-worker service at the quick preset, each job it computes is
// created before the first of them settles. A blocker job holds the worker
// while the experiment starts, so the check does not depend on how fast a
// quick simulation is against how fast the fan-out submits.
func TestExperimentsSubmitBeforeFirstSettle(t *testing.T) {
	ids := []string{
		"fig01", "fig19", "fig20", "fig21", "fig22", "fig23", "fig24", "fig25",
		"fig26", "fig27", "fig28", "fig29", "table2", "table4", "estimator",
		"atomic", "replacement", "codecs-ext",
		"fig12", "fig14", "fig17", "fig30", "table3",
	}
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			svc := simsvc.New(simsvc.Options{Workers: 1, QueueDepth: 4096})
			defer svc.Close()
			lab := NewWithService(svc, Quick())
			started, blocked := make(chan struct{}), make(chan error, 1)
			go func() {
				_, _, err := svc.Do(context.Background(), "blocker", func(context.Context) (*ehs.Result, error) {
					close(started)
					time.Sleep(100 * time.Millisecond)
					return &ehs.Result{Completed: true}, nil
				})
				blocked <- err
			}()
			<-started
			if _, err := lab.Run(id); err != nil {
				t.Fatal(err)
			}
			if err := <-blocked; err != nil {
				t.Fatal(err)
			}
			var lastCreated, firstSettled time.Time
			computed := 0
			for _, st := range svc.Jobs() {
				if st.Cached || st.Key == "blocker" {
					continue
				}
				settled := st.CreatedAt.Add(time.Duration((st.QueueSeconds + st.RunSeconds) * float64(time.Second)))
				if computed == 0 || st.CreatedAt.After(lastCreated) {
					lastCreated = st.CreatedAt
				}
				if computed == 0 || settled.Before(firstSettled) {
					firstSettled = settled
				}
				computed++
			}
			if computed < 2 {
				t.Fatalf("%s computed %d jobs", id, computed)
			}
			if lastCreated.After(firstSettled) {
				t.Errorf("%s: a job was created %v after the first of its %d computed jobs settled",
					id, lastCreated.Sub(firstSettled), computed)
			}
		})
	}
}

// countSims wraps runSim to count simulations for the test's duration.
func countSims(t *testing.T) *atomic.Int64 {
	var n atomic.Int64
	orig := runSim
	runSim = func(ctx context.Context, cfg ehs.Config) (*ehs.Result, error) {
		n.Add(1)
		return orig(ctx, cfg)
	}
	t.Cleanup(func() { runSim = orig })
	return &n
}

// Fig 13's ideal oracle replays what the ACC+Kagura cell recorded: a fresh
// lab simulates base, ACC, ACC+Kagura and the replay, 4 runs per
// (app, seed), not 5.
func TestHeadlineSimulatesFourRunsPerAppSeed(t *testing.T) {
	lab := New(Quick())
	defer lab.Close()
	sims := countSims(t)
	res, err := lab.Fig13Performance()
	if err != nil {
		t.Fatal(err)
	}
	opts := lab.Options()
	if got, want := sims.Load(), int64(4*len(opts.Apps)*len(opts.Seeds)); got != want {
		t.Errorf("headline simulated %d runs, want %d", got, want)
	}
	checkGolden(t, "fig13", res)
}

// When the ACC+Kagura cell comes from the cache, nothing was recorded for
// the ideal job, so it records for itself, with the same table.
func TestHeadlineIdealRecordsWhenCellCached(t *testing.T) {
	lab := New(Quick())
	defer lab.Close()
	opts := lab.Options()
	if _, err := lab.simulate(opts.Apps, opts.traceName(), withKag); err != nil {
		t.Fatal(err)
	}
	sims := countSims(t)
	res, err := lab.Fig13Performance()
	if err != nil {
		t.Fatal(err)
	}
	// base, ACC, and the ideal job's record and replay.
	if got, want := sims.Load(), int64(4*len(opts.Apps)*len(opts.Seeds)); got != want {
		t.Errorf("headline simulated %d runs, want %d", got, want)
	}
	checkGolden(t, "fig13", res)
}
