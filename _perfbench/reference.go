package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The reference outputs, recorded at the default seed from the commit that
// introduced the benchmark. A perf or simplicity change must leave them
// byte-identical; --record rewrites them when a change means to alter the
// model's output.
//
//go:embed testdata/sim_digests.json testdata/figures.txt
var references embed.FS

const (
	simReferenceFile     = "testdata/sim_digests.json"
	figuresReferenceFile = "testdata/figures.txt"
)

func loadSimReference() (map[string]string, error) {
	blob, err := references.ReadFile(simReferenceFile)
	if err != nil {
		return nil, err
	}
	var ref map[string]string
	if err := json.Unmarshal(blob, &ref); err != nil {
		return nil, fmt.Errorf("%s: %w", simReferenceFile, err)
	}
	if len(ref) != len(simApps)*len(simClasses) {
		return nil, fmt.Errorf("%s: %d digests for a %d-cell matrix", simReferenceFile, len(ref), len(simApps)*len(simClasses))
	}
	return ref, nil
}

func loadFiguresReference() (string, error) {
	blob, err := references.ReadFile(figuresReferenceFile)
	if err == nil && len(blob) == 0 {
		err = fmt.Errorf("%s is empty", figuresReferenceFile)
	}
	return string(blob), err
}

// recordReferences rewrites testdata/ from the current program at the
// default seed. Run it from the repository root.
func recordReferences() error {
	digests, err := simDigests(defaultSeed)
	if err != nil {
		return err
	}
	blob, err := json.MarshalIndent(digests, "", "  ")
	if err != nil {
		return err
	}
	tables, err := figureSet(defaultSeed, nil)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join("_perfbench", simReferenceFile), append(blob, '\n'), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("_perfbench", figuresReferenceFile), []byte(tables), 0o644)
}
