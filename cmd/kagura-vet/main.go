// Command kagura-vet is the driver for kagura's project-specific static
// analyzers (internal/lint): simdeterminism, lockedblock, mapiterorder,
// floateq, and atomicwrite. It runs over package patterns:
//
//	go run ./cmd/kagura-vet ./...
//	kagura-vet -sarif ./... > lint.sarif
//	kagura-vet ./internal/simsvc ./internal/ehs
//
// Only the requested packages are analyzed; every analyzer checks one package
// at a time. -unusedallow (on by default) reports //kagura:allow annotations
// that suppressed nothing. Exit status: 0 clean, 1 findings, 2 tool failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"kagura/internal/lint"
)

func main() {
	jsonFlag := flag.Bool("json", false, "emit diagnostics as JSON")
	sarifFlag := flag.Bool("sarif", false, "emit diagnostics as SARIF 2.1.0")
	listFlag := flag.Bool("list", false, "list analyzers and exit")
	unusedFlag := flag.Bool("unusedallow", true, "report //kagura:allow annotations that suppress nothing")
	flag.Usage = usage
	flag.Parse()

	if *listFlag {
		for _, a := range lint.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	os.Exit(run(flag.Args(), *jsonFlag, *sarifFlag, *unusedFlag))
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: kagura-vet [-json|-sarif] [-list] [-unusedallow=false] [packages]\n\nAnalyzers:\n")
	for _, a := range lint.All() {
		fmt.Fprintf(os.Stderr, "  %-16s %s\n", a.Name, a.Doc)
	}
}

// run loads the given package patterns from source and analyzes each
// requested package. Returns the process exit code.
func run(patterns []string, asJSON, asSARIF, unusedAllow bool) int {
	loader, err := lint.NewLoader(".")
	if err != nil {
		return fail(err)
	}
	paths, err := loader.Expand(patterns)
	if err != nil {
		return fail(err)
	}
	suite := lint.NewSuite(lint.All())
	// The unused-suppression report is only sound when every analyzer ran
	// over the annotation's package, which RunPackage guarantees; it is
	// reported per package, so partial runs are fine.
	suite.ReportUnusedAllow = unusedAllow
	var diags []lint.Diagnostic
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			return fail(fmt.Errorf("loading %s: %w", path, err))
		}
		ds, err := suite.RunPackage(pkg)
		if err != nil {
			return fail(err)
		}
		diags = append(diags, ds...)
	}
	lint.SortDiagnostics(diags)
	switch {
	case asSARIF:
		emitSARIF(os.Stdout, diags, loader.ModDir)
	default:
		emit(os.Stdout, diags, asJSON, loader.ModDir)
	}
	if len(diags) > 0 && !asJSON {
		return 1
	}
	return 0
}

// emit prints diagnostics, with positions relative to the module root so
// output is stable across machines.
func emit(w io.Writer, diags []lint.Diagnostic, asJSON bool, modDir string) {
	if asJSON {
		type jsonDiag struct {
			Pos      string `json:"posn"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{relPos(d, modDir), d.Analyzer, d.Message})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out)
		return
	}
	for _, d := range diags {
		fmt.Fprintf(w, "%s: [%s] %s\n", relPos(d, modDir), d.Analyzer, d.Message)
	}
}

// emitSARIF renders diagnostics as a SARIF 2.1.0 log, the interchange format
// code-scanning UIs ingest. One run, one rule per analyzer (plus the
// unusedallow pseudo-rule), uris relative to the module root.
func emitSARIF(w io.Writer, diags []lint.Diagnostic, modDir string) {
	type sarifMessage struct {
		Text string `json:"text"`
	}
	type sarifRule struct {
		ID               string       `json:"id"`
		ShortDescription sarifMessage `json:"shortDescription"`
	}
	type sarifArtifactLocation struct {
		URI string `json:"uri"`
	}
	type sarifRegion struct {
		StartLine   int `json:"startLine"`
		StartColumn int `json:"startColumn"`
	}
	type sarifPhysicalLocation struct {
		ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
		Region           sarifRegion           `json:"region"`
	}
	type sarifLocation struct {
		PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
	}
	type sarifResult struct {
		RuleID    string          `json:"ruleId"`
		Level     string          `json:"level"`
		Message   sarifMessage    `json:"message"`
		Locations []sarifLocation `json:"locations"`
	}
	type sarifDriver struct {
		Name           string      `json:"name"`
		InformationURI string      `json:"informationUri"`
		Rules          []sarifRule `json:"rules"`
	}
	type sarifTool struct {
		Driver sarifDriver `json:"driver"`
	}
	type sarifRun struct {
		Tool    sarifTool     `json:"tool"`
		Results []sarifResult `json:"results"`
	}
	type sarifLog struct {
		Version string     `json:"version"`
		Schema  string     `json:"$schema"`
		Runs    []sarifRun `json:"runs"`
	}

	rules := []sarifRule{{
		ID:               lint.UnusedAllowName,
		ShortDescription: sarifMessage{Text: "report //kagura:allow annotations that suppress nothing or lack a reason"},
	}}
	for _, a := range lint.All() {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysicalLocation{
				ArtifactLocation: sarifArtifactLocation{URI: relFile(d.Pos.Filename, modDir)},
				Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
			}}},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(sarifLog{
		Version: "2.1.0",
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Runs: []sarifRun{{Tool: sarifTool{Driver: sarifDriver{
			Name:           "kagura-vet",
			InformationURI: "DESIGN.md#8-static-analysis",
			Rules:          rules,
		}}, Results: results}},
	})
}

func relPos(d lint.Diagnostic, modDir string) string {
	return fmt.Sprintf("%s:%d:%d", relFile(d.Pos.Filename, modDir), d.Pos.Line, d.Pos.Column)
}

// relFile returns file relative to the module root, slash-separated, or file
// unchanged when it lies outside the module.
func relFile(file, modDir string) string {
	if rel, err := filepath.Rel(modDir, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return file
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "kagura-vet:", err)
	return 2
}
