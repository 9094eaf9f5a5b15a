package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"kagura"
	"kagura/internal/ehs"
	"kagura/internal/simsvc"
	"kagura/internal/workload"
)

const (
	// serveClients is the closed loop's client count: one goroutine and at
	// most one connection each, no more than the reference box's 2 CPUs.
	serveClients = 2
	// serveWorkers is the service's worker pool, as kagura-serve -workers 2.
	serveWorkers = 2
	// forkCycles is the warm-start fork point of every fork request.
	forkCycles = 20000
	// serveScale is every request's workload scale.
	serveScale = 0.1
	// serveSetups is how many set-ups a serve run measures besides its
	// rounds' own; setup_s is the median of all of them.
	serveSetups = 15
	// pollMin and pollMax bound the back-off of a fork request's job polls:
	// the load generator's own polling competes with the workers for the CPUs,
	// so it starts fine and backs off.
	pollMin = time.Millisecond
	pollMax = 10 * time.Millisecond
)

// The request list's fixed class counts, before and after the restart. The
// list is 200 requests whatever the seed or the commit, so a faster commit
// finishes sooner rather than sending (and retaining) more requests, and
// p95 keeps 10 samples beyond it in a single round. Every request retains its
// job, so the list must stay this long for peak_rss_mb to show the retention
// cost (README.md). The shares are an assumption, not taken from any caller's
// traffic: 80 cold requests are the 20 apps under each of four compression
// stacks once, 20 forks (80 jobs) are the 20 apps once as fork bases, and hits
// and disk reads get 50 each, enough for a per-class median; README.md says
// what each class exercises.
var (
	phase1Counts = map[string]int{"cold": 64, "hit": 40, "fork": 16}
	phase2Counts = map[string]int{"cold": 16, "hit": 10, "fork": 4, "disk": 50}
)

// forkPolicies are a fork request's four variants; AIMD is the base's own
// policy, so that variant must equal a cold run of the base.
var forkPolicies = []string{"AIMD", "MIAD", "AIAD", "MIMD"}

// request is one entry of the serve list.
type request struct {
	class string // cold, hit, fork or disk
	phase int    // 1 before the restart, 2 after
	spec  simsvc.RunSpec
	// dep is the index of the cold request whose response this hit or disk
	// request must equal (and wait for); -1 otherwise.
	dep int
}

// serveList builds the request list for a seed: distinct cold specs drawn
// over app, codec, ACC/Kagura, design, trace and trace seed; hits repeating
// an earlier cold spec of the same phase; fork batches over a Kagura base
// spec; and, after the restart, disk requests repeating distinct specs
// computed before it.
func serveList(seed uint64) []request {
	r := rand.New(rand.NewPCG(seed, 0x6b61677572612d62))
	apps := workload.Names()
	designs := []string{"NVSRAMCache", "NvMR", "SweepCache"}
	traces := []string{"RFHome", "Solar", "Thermal"}
	seen := map[string]bool{}
	draw := func(sp simsvc.RunSpec) simsvc.RunSpec {
		for {
			sp.Seed = 1 + r.Uint64N(1_000_000)
			if id := fmt.Sprintf("%+v", sp); !seen[id] {
				seen[id] = true
				return sp
			}
		}
	}
	// The draw is stratified: cell k fixes app, compression stack (none,
	// codec, codec+ACC, codec+ACC+Kagura: the 80 cells cover every app under
	// each once), codec, design and trace, so every seed's list holds the
	// same mix of work; the seed draws the trace seeds, the order, and what
	// repeats what.
	nCold := phase1Counts["cold"] + phase2Counts["cold"]
	colds := make([]simsvc.RunSpec, nCold)
	for i, k := range r.Perm(nCold) {
		a, stack := k%len(apps), k/len(apps)
		sp := simsvc.RunSpec{
			App: apps[a], Scale: serveScale,
			Design: designs[(a+stack)%len(designs)], Trace: traces[(a+2*stack)%len(traces)],
		}
		if stack > 0 {
			sp.Codec = codecNames[(a+stack)%len(codecNames)]
			sp.ACC = stack >= 2
			sp.Kagura = stack == 3
		}
		colds[i] = draw(sp)
	}
	nFork := phase1Counts["fork"] + phase2Counts["fork"]
	forks := make([]simsvc.RunSpec, nFork)
	for i, k := range r.Perm(nFork) {
		forks[i] = draw(simsvc.RunSpec{
			App: apps[k%len(apps)], Scale: serveScale, Trace: traces[k%len(traces)],
			Codec: "BDI", ACC: true, Kagura: true, Policy: "AIMD",
		})
	}

	var list []request
	var phase1Colds []int
	for phase, counts := range []map[string]int{phase1Counts, phase2Counts} {
		var classes []string
		for _, c := range requestClasses {
			for i := 0; i < counts[c]; i++ {
				classes = append(classes, c)
			}
		}
		r.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
		// A phase opens with a cold request, so every hit has one to repeat.
		for i, c := range classes {
			if c == "cold" {
				classes[0], classes[i] = classes[i], classes[0]
				break
			}
		}
		var phaseColds []int
		diskDeps := append([]int(nil), phase1Colds...)
		r.Shuffle(len(diskDeps), func(i, j int) { diskDeps[i], diskDeps[j] = diskDeps[j], diskDeps[i] })
		for _, c := range classes {
			req := request{class: c, phase: phase + 1, dep: -1}
			switch c {
			case "cold":
				req.spec, colds = colds[0], colds[1:]
				phaseColds = append(phaseColds, len(list))
			case "hit":
				req.dep = phaseColds[r.IntN(len(phaseColds))]
				req.spec = list[req.dep].spec
			case "fork":
				req.spec, forks = forks[0], forks[1:]
			case "disk":
				req.dep, diskDeps = diskDeps[0], diskDeps[1:]
				req.spec = list[req.dep].spec
			}
			list = append(list, req)
		}
		if phase == 0 {
			phase1Colds = phaseColds
		}
	}
	return list
}

// forkBody is the POST /v1/batch body of a fork request.
func forkBody(base simsvc.RunSpec) ([]byte, error) {
	jobs := make([]simsvc.RunSpec, len(forkPolicies))
	for i, p := range forkPolicies {
		jobs[i] = base
		jobs[i].Policy = p
	}
	return json.Marshal(map[string]any{"jobs": jobs, "forkPoint": simsvc.ForkPoint{Cycles: forkCycles}})
}

// warmSpec is the untimed warm-up request; its seed is outside the list's.
var warmSpec = simsvc.RunSpec{App: "crc", Scale: serveScale, Seed: 2_000_000}

// server is one in-process kagura-serve: the service over a store directory
// with its journal, the campaign layer, and a loopback listener.
type server struct {
	jnl  *kagura.Journal
	svc  *kagura.SimService
	mgr  *kagura.CampaignManager
	srv  *http.Server
	url  string
	done chan error
}

// startServer wires the service the way kagura-serve does with -store-dir
// and -workers 2, and waits until /readyz reports ready.
func startServer(dir string, client *http.Client) (*server, error) {
	jnl, err := kagura.OpenJournal(filepath.Join(dir, "journal"))
	if err != nil {
		return nil, err
	}
	opts := kagura.DefaultServiceOptions()
	opts.Workers = serveWorkers
	opts.DefaultTimeout = 10 * time.Minute
	opts.StoreDir = dir
	opts.Journal = jnl
	svc := kagura.NewService(opts)
	if err := svc.StoreErr(); err != nil {
		svc.Close()
		jnl.Close()
		return nil, err
	}
	mgr := kagura.NewCampaignManagerJournaled(svc, jnl)
	mgr.ResumeFromJournal()
	svc.StartJournalReplay()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		svc.Close()
		jnl.Close()
		return nil, err
	}
	s := &server{
		jnl: jnl, svc: svc, mgr: mgr,
		srv: &http.Server{
			Handler:           kagura.CampaignHandler(mgr, kagura.ServiceHandler(svc)),
			ReadHeaderTimeout: 10 * time.Second,
		},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		resp, err := client.Get(s.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Since(start) > 30*time.Second {
			s.close()
			return nil, fmt.Errorf("service not ready after 30s: %v", err)
		}
	}
}

// close shuts the server down gracefully, in kagura-serve's order.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.mgr.Close()
	s.svc.Close()
	if jerr := s.jnl.Close(); err == nil {
		err = jerr
	}
	return err
}

// reply is one request's outcome.
type reply struct {
	lat    float64  // seconds, client-observed
	body   []byte   // canonical result (cold, hit, disk)
	cached bool     // the service marked the result (cold, hit, disk) cached
	forks  [][]byte // canonical result per fork variant
	instrs int64    // simulated instructions the request computed
	err    error
}

// newClient returns the load generator's HTTP client: at most serveClients
// connections to the service.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     serveClients,
			MaxIdleConnsPerHost: serveClients,
			DisableCompression:  true,
		},
	}
}

// runLoad plays list[lo:hi] against url in a closed loop: serveClients
// goroutines each take the next request, wait for the cold request it
// repeats (if any), and send it. A request's latency starts when it is
// sent. It returns the wall time of the phase.
func runLoad(client *http.Client, url string, list []request, lo, hi int, replies []reply, done []chan struct{}) float64 {
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= hi {
					return
				}
				req := &list[i]
				if req.dep >= 0 {
					<-done[req.dep]
				}
				t := time.Now()
				replies[i] = send(client, url, req)
				replies[i].lat = since(t)
				close(done[i])
			}
		}()
	}
	wg.Wait()
	return since(start)
}

// send issues one request and, for a fork, polls its four jobs until they
// settle.
func send(client *http.Client, url string, req *request) reply {
	if req.class != "fork" {
		body, err := json.Marshal(req.spec)
		if err != nil {
			return reply{err: err}
		}
		raw, err := post(client, url+"/v1/run", body, http.StatusOK)
		if err != nil {
			return reply{err: err}
		}
		canon, instrs, cached, err := canonicalResult(raw)
		if cached {
			instrs = 0
		}
		return reply{body: canon, cached: cached, instrs: instrs, err: err}
	}
	body, err := forkBody(req.spec)
	if err != nil {
		return reply{err: err}
	}
	raw, err := post(client, url+"/v1/batch", body, http.StatusAccepted)
	if err != nil {
		return reply{err: err}
	}
	var batch struct {
		Jobs []struct {
			ID string `json:"id"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &batch); err != nil {
		return reply{err: err}
	}
	if len(batch.Jobs) != len(forkPolicies) {
		return reply{err: fmt.Errorf("fork batch returned %d jobs, want %d", len(batch.Jobs), len(forkPolicies))}
	}
	// The workers take the jobs in order, so the last one settles last:
	// waiting for it first leaves the others settled by the time they are
	// polled.
	out := reply{forks: make([][]byte, len(batch.Jobs))}
	for v := len(batch.Jobs) - 1; v >= 0; v-- {
		canon, instrs, err := awaitJob(client, url, batch.Jobs[v].ID)
		if err != nil {
			return reply{err: err}
		}
		out.forks[v] = canon
		out.instrs += instrs
	}
	return out
}

// awaitJob polls GET /v1/jobs/{id}, backing off from pollMin to pollMax,
// until the job settles and returns its canonical result and the simulated
// instructions it computed.
func awaitJob(client *http.Client, url, id string) ([]byte, int64, error) {
	for wait := pollMin; ; wait = min(2*wait, pollMax) {
		resp, err := client.Get(url + "/v1/jobs/" + id)
		if err != nil {
			return nil, 0, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, 0, fmt.Errorf("GET job %s: %s: %s", id, resp.Status, raw)
		}
		var st struct {
			State  string          `json:"state"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			return nil, 0, err
		}
		switch st.State {
		case "done":
			canon, instrs, cached, err := canonicalResult(st.Result)
			if cached {
				instrs = 0
			}
			return canon, instrs, err
		case "failed", "canceled":
			return nil, 0, fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
		}
		time.Sleep(wait)
	}
}

func post(client *http.Client, url string, body []byte, want int) ([]byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// canonicalResult strips a RunResult of the fields that legitimately differ
// between a computed, a cached and a forked answer (cached and the
// warm-start provenance) and re-marshals the rest with sorted keys; every
// other byte must match. It also returns the result's simulated instructions
// and its cached flag.
func canonicalResult(raw []byte) (canon []byte, executed int64, cached bool, err error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, 0, false, fmt.Errorf("result: %w", err)
	}
	if c, ok := m["cached"]; ok {
		if err := json.Unmarshal(c, &cached); err != nil {
			return nil, 0, false, err
		}
	}
	if err := json.Unmarshal(m["executed"], &executed); err != nil {
		return nil, 0, false, fmt.Errorf("result executed: %w", err)
	}
	delete(m, "cached")
	delete(m, "warmStartFromCycle")
	canon, err = json.Marshal(m)
	return canon, executed, cached, err
}

// directResult computes a spec in-process, outside the service, and returns
// the canonical form of the RunResult the service should answer with.
func directResult(spec simsvc.RunSpec) ([]byte, *ehs.Result, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return nil, nil, err
	}
	key, err := norm.Key()
	if err != nil {
		return nil, nil, err
	}
	cfg, err := norm.Config()
	if err != nil {
		return nil, nil, err
	}
	res, err := ehs.Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	blob, err := json.Marshal(simsvc.NewRunResult(&norm, key, false, res))
	if err != nil {
		return nil, nil, err
	}
	canon, _, _, err := canonicalResult(blob)
	return canon, res, err
}

// serveChecker checks every reply: hits and disk reads must equal the cold
// reply they repeat; in the first round cold replies and each fork's base
// variant must equal an in-process computation of the spec; later rounds
// must repeat the first round's replies byte for byte. It also checks that
// each request was served the way its class says: hits from the memory
// cache, cold and disk requests not, and every disk request from the store.
type serveChecker struct {
	first []reply
	// direct holds the in-process results of the cold and fork-base specs,
	// by list index (kept for the traced run's store and ckpt layers).
	direct map[int]*ehs.Result
}

func (c *serveChecker) check(out *outcome, list []request, replies []reply, tr *roundTrace) error {
	firstRound := c.first == nil
	if firstRound {
		c.direct = map[int]*ehs.Result{}
	}
	disk := 0
	for i := range list {
		req, rep := &list[i], &replies[i]
		out.attempted++
		if req.class == "disk" {
			disk++
		}
		if rep.err != nil {
			out.fail("serve %s #%d: %v", req.class, i, rep.err)
			continue
		}
		if req.class != "fork" && rep.cached != (req.class == "hit") {
			out.fail("serve %s #%d (%s): answered with cached=%t", req.class, i, req.spec.App, rep.cached)
			continue
		}
		var got, want []byte
		switch req.class {
		case "hit", "disk":
			got, want = rep.body, replies[req.dep].body
		case "cold":
			got = rep.body
			if firstRound {
				var err error
				if want, c.direct[i], err = directResult(req.spec); err != nil {
					return err
				}
			} else {
				want = c.first[i].body
			}
		case "fork":
			if len(rep.forks) != len(forkPolicies) {
				out.fail("serve fork #%d: %d variants settled", i, len(rep.forks))
				continue
			}
			got = rep.forks[0]
			if firstRound {
				var err error
				if want, c.direct[i], err = directResult(req.spec); err != nil {
					return err
				}
			} else {
				if len(c.first[i].forks) != len(forkPolicies) {
					out.fail("serve fork #%d: no first-round reply to repeat", i)
					continue
				}
				want = c.first[i].forks[0]
				for v := 1; v < len(forkPolicies); v++ {
					if !bytes.Equal(rep.forks[v], c.first[i].forks[v]) {
						out.fail("serve fork #%d variant %s differs from the first round", i, forkPolicies[v])
					}
				}
			}
		}
		if !bytes.Equal(got, want) {
			out.fail("serve %s #%d (%s): response differs from the expected result", req.class, i, req.spec.App)
		}
	}
	// After the restart only disk requests repeat an earlier phase's spec,
	// so the store must have served exactly one result per disk request. A
	// shortfall is that many disk requests that computed instead.
	hits, err := sumSeries(tr.metrics[1], `kagura_store_hits_total{kind="result"}`)
	if err != nil {
		return err
	}
	if n := int(hits); n != disk {
		for k := 0; k < max(disk-n, 1); k++ {
			out.fail("serve disk: the store served %d results after the restart, want %d", n, disk)
		}
	}
	if firstRound {
		c.first = replies
	}
	return nil
}

// roundTrace is what a round reads back from the service.
type roundTrace struct {
	jobs    [2][]simsvc.JobStatus // per phase, before each shutdown (traced)
	metrics [2]string             // /metrics text per phase
	restart float64               // seconds
	rssBase float64               // MiB after set-up
	rssPeak float64               // MiB peak while the round ran
}

// setUp does everything before a round's first timed op: it starts a fresh
// service on an empty store directory and sends it the warm-up request.
func setUp(dir string) (*server, *http.Client, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	warm, err := json.Marshal(warmSpec)
	if err != nil {
		return nil, nil, err
	}
	client := newClient()
	srv, err := startServer(dir, client)
	if err != nil {
		return nil, nil, err
	}
	if _, err := post(client, srv.url+"/v1/run", warm, http.StatusOK); err != nil {
		srv.close()
		client.CloseIdleConnections()
		return nil, nil, err
	}
	return srv, client, nil
}

// serveRound runs one round: set up a fresh service on an empty store
// directory, warm it up, play the first phase, restart gracefully on the
// same directory, play the second phase, and shut down.
func serveRound(dir string, list []request, traced bool) (setup float64, replies []reply, walls [2]float64, tr *roundTrace, err error) {
	releaseMemory()
	tr = &roundTrace{}
	start := time.Now()
	defer os.RemoveAll(dir)
	srv, client, err := setUp(dir)
	if err != nil {
		return
	}
	defer client.CloseIdleConnections()
	defer func() {
		if srv != nil {
			if cerr := srv.close(); err == nil {
				err = cerr
			}
		}
	}()
	setup = since(start)
	tr.rssBase = rssMB()
	rss := sampleRSS()
	defer func() { tr.rssPeak = rss.done() }()

	replies = make([]reply, len(list))
	done := make([]chan struct{}, len(list))
	for i := range done {
		done[i] = make(chan struct{})
	}
	split := 0
	for split < len(list) && list[split].phase == 1 {
		split++
	}
	for phase, bounds := range [][2]int{{0, split}, {split, len(list)}} {
		walls[phase] = runLoad(client, srv.url, list, bounds[0], bounds[1], replies, done)
		if traced {
			if tr.jobs[phase], err = getJobs(client, srv.url); err != nil {
				return
			}
		}
		if tr.metrics[phase], err = getText(client, srv.url+"/metrics"); err != nil {
			return
		}
		if phase == 0 {
			t := time.Now()
			err = srv.close()
			srv = nil
			if err != nil {
				return
			}
			client.CloseIdleConnections()
			if srv, err = startServer(dir, client); err != nil {
				return
			}
			tr.restart = since(t)
		}
	}
	return
}

func getJobs(client *http.Client, url string) ([]simsvc.JobStatus, error) {
	raw, err := getText(client, url+"/v1/jobs")
	if err != nil {
		return nil, err
	}
	var body struct {
		Jobs []simsvc.JobStatus `json:"jobs"`
	}
	err = json.Unmarshal([]byte(raw), &body)
	return body.Jobs, err
}

func getText(client *http.Client, url string) (string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(raw), nil
}

// runServe plays the seed's request list in rounds until the budget is spent
// (at least one round). Each round is a fresh service, so rounds are
// identical work and peak_rss_mb is one round's.
func runServe(opts options, seconds float64, traced bool) (*outcome, error) {
	out := &outcome{}
	list := serveList(opts.seed)
	check := &serveChecker{}
	var st serveStats
	// Set-ups on their own, so setup_s is a median of several even when one
	// round fills the budget.
	for i := 0; i < serveSetups; i++ {
		dir := filepath.Join(opts.workdir, fmt.Sprintf("setup-%d", i))
		releaseMemory()
		start := time.Now()
		srv, client, err := setUp(dir)
		if err != nil {
			return nil, fmt.Errorf("serve set-up: %w", err)
		}
		out.setup = append(out.setup, since(start))
		err = srv.close()
		client.CloseIdleConnections()
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("serve set-up: %w", err)
		}
	}
	timed := 0.0
	for round := 0; round == 0 || timed < seconds; round++ {
		dir := filepath.Join(opts.workdir, fmt.Sprintf("serve-%d", round))
		setup, replies, walls, tr, err := serveRound(dir, list, traced)
		if err != nil {
			return nil, fmt.Errorf("serve round %d: %w", round, err)
		}
		out.setup = append(out.setup, setup)
		u := unit{sec: walls[0] + walls[1], rssMB: tr.rssPeak}
		timed += u.sec
		for i, rep := range replies {
			if rep.err != nil {
				continue
			}
			out.opLat = append(out.opLat, rep.lat)
			u.ops++
			if c := list[i].class; c == "cold" || c == "fork" {
				u.instrs += rep.instrs // hit and disk replies simulate nothing
			}
		}
		out.units = append(out.units, u)
		if err := check.check(out, list, replies, tr); err != nil {
			return nil, err
		}
		if traced {
			if err := st.add(list, replies, tr); err != nil {
				return nil, err
			}
		}
	}
	if traced {
		layers, err := serveLayers(opts, list, check.direct, &st)
		if err != nil {
			return nil, err
		}
		out.layers = layers
	}
	return out, nil
}
