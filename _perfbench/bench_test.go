package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestServeListDeterministic(t *testing.T) {
	a, b := serveList(7), serveList(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("serveList(7) differs between calls")
	}
	if reflect.DeepEqual(a, serveList(8)) {
		t.Fatal("serveList ignores its seed")
	}
}

func TestServeListShape(t *testing.T) {
	for _, seed := range []uint64{1, 2, 99} {
		list := serveList(seed)
		counts := [2]map[string]int{{}, {}}
		keys := map[string]bool{}
		diskDeps := map[int]bool{}
		for i, req := range list {
			if i > 0 && req.phase < list[i-1].phase {
				t.Fatalf("seed %d: #%d phase %d after phase %d", seed, i, req.phase, list[i-1].phase)
			}
			counts[req.phase-1][req.class]++
			switch req.class {
			case "cold":
				key, err := req.spec.Key()
				if err != nil {
					t.Fatalf("seed %d: #%d: %v", seed, i, err)
				}
				if keys[key] {
					t.Fatalf("seed %d: cold #%d repeats an earlier cold key", seed, i)
				}
				keys[key] = true
			case "hit", "disk":
				dep := list[req.dep]
				if req.dep >= i || dep.class != "cold" || dep.spec.App != req.spec.App || dep.spec.Seed != req.spec.Seed {
					t.Fatalf("seed %d: %s #%d does not repeat an earlier cold request", seed, req.class, i)
				}
				if req.class == "hit" && dep.phase != req.phase {
					t.Fatalf("seed %d: hit #%d repeats a cold request of another phase", seed, i)
				}
				if req.class == "disk" {
					if dep.phase != 1 || diskDeps[req.dep] {
						t.Fatalf("seed %d: disk #%d must repeat a distinct pre-restart cold request", seed, i)
					}
					diskDeps[req.dep] = true
				}
			case "fork":
				if !req.spec.Kagura {
					t.Fatalf("seed %d: fork #%d has no Kagura base", seed, i)
				}
			}
		}
		for phase, want := range []map[string]int{phase1Counts, phase2Counts} {
			for _, class := range requestClasses {
				if counts[phase][class] != want[class] {
					t.Fatalf("seed %d phase %d: %d %s requests, want %d", seed, phase+1, counts[phase][class], class, want[class])
				}
			}
		}
	}
}

// TestCatalogMatchesBenchmarkJSON checks that the metrics the benchmark
// prints are exactly those BENCHMARK.json declares, with the same units.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d, the benchmark prints %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Fatalf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	var names []metricDef
	for _, w := range workloads {
		names = append(names, metricDef{w.name, ""})
	}
	same("workloads", spec.Workloads, names)

	m := endToEndMetrics(&outcome{setup: []float64{1}, opLat: []float64{1}, units: []unit{{ops: 1, instrs: 1, sec: 1, rssMB: 1}}})
	if len(m) != len(endToEnd) {
		t.Fatalf("endToEndMetrics returns %d metrics, the catalogue has %d", len(m), len(endToEnd))
	}
	if _, err := resultLine(endToEnd, m, &outcome{attempted: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestLoadGeneratorBounded plays a list against a stub service and checks
// that no more than serveClients requests or connections are ever open at
// once, and that serveClients is within the reference box's 2 CPUs.
func TestLoadGeneratorBounded(t *testing.T) {
	if serveClients > 2 {
		t.Fatalf("serveClients = %d exceeds the 2 CPUs of the reference box", serveClients)
	}
	var inFlight, maxInFlight, maxConns atomic.Int64
	raise := func(v *atomic.Int64, n int64) {
		for {
			cur := v.Load()
			if n <= cur || v.CompareAndSwap(cur, n) {
				return
			}
		}
	}
	result := `{"key":"k","executed":1000}`
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raise(&maxInFlight, inFlight.Add(1))
		defer inFlight.Add(-1)
		time.Sleep(time.Millisecond)
		switch {
		case r.URL.Path == "/v1/run":
			fmt.Fprint(w, result)
		case r.URL.Path == "/v1/batch":
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"count":4,"jobs":[{"id":"a"},{"id":"b"},{"id":"c"},{"id":"d"}]}`)
		case strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
			fmt.Fprintf(w, `{"state":"done","result":%s}`, result)
		default:
			http.NotFound(w, r)
		}
	}))
	var mu sync.Mutex
	open := map[net.Conn]bool{}
	srv.Config.ConnState = func(c net.Conn, st http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch st {
		case http.StateNew:
			open[c] = true
		case http.StateClosed, http.StateHijacked:
			delete(open, c)
		}
		raise(&maxConns, int64(len(open)))
	}
	srv.Start()
	defer srv.Close()

	list := serveList(3)
	replies := make([]reply, len(list))
	done := make([]chan struct{}, len(list))
	for i := range done {
		done[i] = make(chan struct{})
	}
	client := newClient()
	defer client.CloseIdleConnections()
	runLoad(client, srv.URL, list, 0, len(list), replies, done)
	for i, rep := range replies {
		if rep.err != nil {
			t.Fatalf("request #%d: %v", i, rep.err)
		}
	}
	if got := maxInFlight.Load(); got > serveClients {
		t.Errorf("%d requests in flight at once, want ≤ %d", got, serveClients)
	}
	if got := maxConns.Load(); got > serveClients {
		t.Errorf("%d connections open at once, want ≤ %d", got, serveClients)
	}
}
