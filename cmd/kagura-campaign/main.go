// Command kagura-campaign runs declarative sweep campaigns (DESIGN.md §13).
//
// Usage:
//
//	kagura-campaign run -spec campaign.json -out report.json -csv report.csv
//	kagura-campaign run -spec campaign.json -addr http://localhost:8080
//	kagura-campaign run -spec campaign.json -store-dir ./state -resume
//	kagura-campaign status -addr http://localhost:8080 [-id c1]
//	kagura-campaign export -addr http://localhost:8080 -id c1 -format csv -out report.csv
//	kagura-campaign params
//
// run executes a campaign spec. Without -addr it runs in process on a local
// service; with -addr it POSTs the spec to a kagura-serve instance, polls
// until the campaign settles, and downloads the report. Either way the
// resulting report is deterministic: same spec + seed ⇒ byte-identical
// JSON/CSV, regardless of -workers or the server's pool size.
//
// run -resume picks up an interrupted campaign instead of starting over
// (DESIGN.md §14). Locally it needs -store-dir: the run journals its waves
// under <store-dir>/journal, and a rerun with -resume fast-forwards through
// the checkpointed waves (store hits, not recomputation) before continuing —
// the resumed report is byte-identical to an uninterrupted run. Remotely it
// matches the spec's hash against the server's campaigns and re-attaches to
// the existing one (including a campaign the server itself resumed after a
// crash) rather than POSTing a duplicate.
//
// status lists a server's campaigns (or one campaign's live dispatch state);
// export downloads a finished campaign's report. params prints the sweepable
// RunSpec knobs a spec's axes may name.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"kagura"
	"kagura/internal/campaign"
	"kagura/internal/frame"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "run":
		cmdRun(os.Args[2:])
	case "status":
		cmdStatus(os.Args[2:])
	case "export":
		cmdExport(os.Args[2:])
	case "params":
		fmt.Println(strings.Join(kagura.CampaignParams(), "\n"))
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "kagura-campaign: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `kagura-campaign runs declarative sweep campaigns.

Commands:
  run     execute a campaign spec (in process, or remotely via -addr)
  status  list a server's campaigns, or show one campaign's live status
  export  download a finished campaign's report from a server
  params  list the sweepable RunSpec knobs

Run "kagura-campaign <command> -h" for the command's flags.
`)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "kagura-campaign: %v\n", err)
		os.Exit(1)
	}
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	specPath := fs.String("spec", "", "campaign spec JSON file (required)")
	addr := fs.String("addr", "", "kagura-serve base URL (empty = run in process)")
	workers := fs.Int("workers", 0, "in-process worker pool size (0 = GOMAXPROCS)")
	out := fs.String("out", "", "write the JSON report here (empty = stdout)")
	csvOut := fs.String("csv", "", "also write the CSV report here")
	poll := fs.Duration("poll", time.Second, "remote status poll interval")
	verbose := fs.Bool("v", false, "log each dispatched point to stderr")
	storeDir := fs.String("store-dir", "",
		"local mode: persistent store + crash journal directory (enables -resume)")
	resume := fs.Bool("resume", false,
		"resume an interrupted campaign: locally from <store-dir>/journal, remotely by spec hash")
	fs.Parse(args)

	if *specPath == "" {
		fatal(fmt.Errorf("run: -spec is required"))
	}
	if *resume && *addr == "" && *storeDir == "" {
		fatal(fmt.Errorf("run: -resume needs -store-dir (local) or -addr (remote)"))
	}
	f, err := os.Open(*specPath)
	fatal(err)
	spec, err := kagura.DecodeCampaignSpec(f)
	f.Close()
	fatal(err)

	var rep *kagura.CampaignReport
	if *addr == "" {
		rep, err = runLocal(spec, *workers, *verbose, *storeDir, *resume)
	} else {
		rep, err = runRemote(*addr, *specPath, spec, *poll, *verbose, *resume)
	}
	fatal(err)

	blob, err := rep.ExportJSON()
	fatal(err)
	fatal(writeOutput(*out, blob))
	if *csvOut != "" {
		csv, err := rep.ExportCSV()
		fatal(err)
		fatal(writeOutput(*csvOut, csv))
	}
	fmt.Fprintf(os.Stderr, "kagura-campaign: %s — %d/%d points submitted over %d rounds, best index %d, %d on the Pareto frontier\n",
		rep.Name, rep.Submitted, rep.TotalPoints, rep.Rounds, rep.BestIndex, len(rep.Pareto))
}

// runLocal executes the campaign in process. With a -store-dir the run is
// journaled under <store-dir>/journal; with -resume as well, an interrupted
// run whose journaled spec hash matches is fast-forwarded instead of
// restarted (DESIGN.md §14).
func runLocal(spec *kagura.CampaignSpec, workers int, verbose bool, storeDir string, resume bool) (*kagura.CampaignReport, error) {
	opts := kagura.DefaultServiceOptions()
	opts.Workers = workers
	var jnl *kagura.Journal
	if storeDir != "" {
		opts.StoreDir = storeDir
		var err error
		jnl, err = kagura.OpenJournal(filepath.Join(storeDir, "journal"))
		if err != nil {
			return nil, err
		}
		// LIFO with svc.Close below: the service settles in-flight jobs into
		// the journal first, then the journal closes.
		defer jnl.Close()
		opts.Journal = jnl
	}
	svc := kagura.NewService(opts)
	defer svc.Close()
	if err := svc.StoreErr(); err != nil {
		return nil, err
	}
	runner := &kagura.CampaignRunner{Svc: svc}
	if jnl != nil {
		hash, _, err := campaign.SpecHash(spec)
		if err != nil {
			return nil, err
		}
		runner.Jnl = jnl
		// Deterministic ID: reruns of the same spec find their own intent.
		runner.CampaignID = "cli-" + hash[:12]
		if resume {
			if intent := jnl.State().Campaigns[runner.CampaignID]; intent != nil && intent.SpecHash == hash {
				runner.Resume = intent
				fmt.Fprintf(os.Stderr, "kagura-campaign: resuming from %s — %d checkpointed wave(s)\n",
					storeDir, len(intent.Waves))
			} else {
				fmt.Fprintf(os.Stderr, "kagura-campaign: no interrupted run for this spec in %s; starting fresh\n", storeDir)
			}
		}
	}
	if verbose {
		runner.Progress = func(round, index int, jobID string) {
			fmt.Fprintf(os.Stderr, "kagura-campaign: round %d point %d -> %s\n", round, index, jobID)
		}
	}
	return runner.Run(context.Background(), spec)
}

// runRemote re-reads the spec file verbatim (the server validates it again),
// POSTs it, polls until the campaign settles, and downloads the JSON report.
// With -resume it first looks for an existing campaign with the same spec
// hash and re-attaches to it instead of POSTing a duplicate.
func runRemote(addr, specPath string, spec *kagura.CampaignSpec, poll time.Duration, verbose bool, resume bool) (*kagura.CampaignReport, error) {
	var st kagura.CampaignStatus
	attached := false
	if resume {
		var err error
		st, attached, err = findBySpecHash(addr, spec)
		if err != nil {
			return nil, err
		}
		if attached {
			fmt.Fprintf(os.Stderr, "kagura-campaign: re-attached to %s on %s (%s, %d/%d dispatched)\n",
				st.ID, addr, st.State, dispatchedPoints(st), st.TotalPoints)
		} else {
			fmt.Fprintf(os.Stderr, "kagura-campaign: no campaign with this spec on %s; starting fresh\n", addr)
		}
	}
	if !attached {
		body, err := os.ReadFile(specPath)
		if err != nil {
			return nil, err
		}
		resp, err := http.Post(strings.TrimSuffix(addr, "/")+"/v1/campaigns", "application/json", strings.NewReader(string(body)))
		if err != nil {
			return nil, err
		}
		if err := decodeResponse(resp, http.StatusAccepted, &st); err != nil {
			return nil, err
		}
		if verbose {
			fmt.Fprintf(os.Stderr, "kagura-campaign: started %s on %s (%d points)\n", st.ID, addr, st.TotalPoints)
		}
	}
	for st.State == campaign.StateRunning {
		time.Sleep(poll)
		var err error
		st, err = fetchStatus(addr, st.ID)
		if err != nil {
			return nil, err
		}
		if verbose {
			fmt.Fprintf(os.Stderr, "kagura-campaign: %s %s — %d/%d dispatched\n",
				st.ID, st.State, dispatchedPoints(st), st.TotalPoints)
		}
	}
	if st.State == campaign.StateFailed {
		return nil, fmt.Errorf("campaign %s failed: %s", st.ID, st.Error)
	}
	if st.Report == nil {
		return nil, fmt.Errorf("campaign %s finished without a report", st.ID)
	}
	return st.Report, nil
}

// findBySpecHash scans the server's campaign list for one whose recorded
// spec hash matches the local spec (skipping failed ones) and returns its
// full status. attached=false means nothing matched — run it fresh.
func findBySpecHash(addr string, spec *kagura.CampaignSpec) (kagura.CampaignStatus, bool, error) {
	hash, _, err := campaign.SpecHash(spec)
	if err != nil {
		return kagura.CampaignStatus{}, false, err
	}
	resp, err := http.Get(strings.TrimSuffix(addr, "/") + "/v1/campaigns")
	if err != nil {
		return kagura.CampaignStatus{}, false, err
	}
	var list struct {
		Campaigns []kagura.CampaignStatus `json:"campaigns"`
	}
	if err := decodeResponse(resp, http.StatusOK, &list); err != nil {
		return kagura.CampaignStatus{}, false, err
	}
	for _, c := range list.Campaigns {
		if c.SpecHash == hash && c.State != campaign.StateFailed {
			// The list view is a summary; fetch the full status (the report
			// rides on it once the campaign is done).
			st, err := fetchStatus(addr, c.ID)
			return st, err == nil, err
		}
	}
	return kagura.CampaignStatus{}, false, nil
}

func cmdStatus(args []string) {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "kagura-serve base URL")
	id := fs.String("id", "", "campaign ID (empty = list all)")
	fs.Parse(args)

	if *id != "" {
		st, err := fetchStatus(*addr, *id)
		fatal(err)
		blob, err := json.MarshalIndent(st, "", "  ")
		fatal(err)
		fmt.Println(string(blob))
		return
	}
	resp, err := http.Get(strings.TrimSuffix(*addr, "/") + "/v1/campaigns")
	fatal(err)
	var list struct {
		Campaigns []kagura.CampaignStatus `json:"campaigns"`
	}
	fatal(decodeResponse(resp, http.StatusOK, &list))
	if len(list.Campaigns) == 0 {
		fmt.Println("no campaigns")
		return
	}
	for _, st := range list.Campaigns {
		fmt.Printf("%-6s %-20s %-8s %s  %d/%d dispatched\n",
			st.ID, st.Name, st.State, st.Strategy, dispatchedPoints(st), st.TotalPoints)
	}
}

// dispatchedPoints counts dispatched sweep points, excluding the baseline
// job (index -1).
func dispatchedPoints(st kagura.CampaignStatus) int {
	n := 0
	for _, pj := range st.Dispatched {
		if pj.Index >= 0 {
			n++
		}
	}
	return n
}

func cmdExport(args []string) {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "kagura-serve base URL")
	id := fs.String("id", "", "campaign ID (required)")
	format := fs.String("format", "json", "export format: json or csv")
	out := fs.String("out", "", "write the report here (empty = stdout)")
	fs.Parse(args)

	if *id == "" {
		fatal(fmt.Errorf("export: -id is required"))
	}
	if *format != "json" && *format != "csv" {
		fatal(fmt.Errorf("export: unknown format %q (json or csv)", *format))
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/campaigns/%s?format=%s",
		strings.TrimSuffix(*addr, "/"), *id, *format))
	fatal(err)
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	fatal(err)
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("export: server returned %s: %s", resp.Status, strings.TrimSpace(string(blob))))
	}
	fatal(writeOutput(*out, blob))
}

func fetchStatus(addr, id string) (kagura.CampaignStatus, error) {
	var st kagura.CampaignStatus
	resp, err := http.Get(strings.TrimSuffix(addr, "/") + "/v1/campaigns/" + id)
	if err != nil {
		return st, err
	}
	return st, decodeResponse(resp, http.StatusOK, &st)
}

// decodeResponse reads one JSON response, surfacing non-2xx bodies (the
// server's {"error","code"} payload) as errors.
func decodeResponse(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	blob, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("server returned %s: %s", resp.Status, strings.TrimSpace(string(blob)))
	}
	return json.Unmarshal(blob, v)
}

// writeOutput lands a report on disk atomically (a crashed export must not
// leave a torn file that a downstream diff would read), or on stdout.
func writeOutput(path string, blob []byte) error {
	if path == "" {
		_, err := os.Stdout.Write(blob)
		return err
	}
	return frame.WriteFileAtomic(path, blob, 0o644)
}
