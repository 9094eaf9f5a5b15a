// Package storefixture is a fixture for the atomicwrite analyzer, loaded
// under the identity of a persisting package (kagura/internal/store): the
// raw os write primitives are flagged; WriteFileAtomic, scratch temp files,
// reads, and annotated renames pass. Reverting an atomic call site to
// os.WriteFile is exactly the first case — it fails the suite.
package storefixture

import (
	"os"

	"kagura/internal/frame"
)

func persistRaw(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644) // want `os.WriteFile in persisting package`
}

func persistCreate(path string, data []byte) error {
	f, err := os.Create(path) // want `os.Create in persisting package`
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(data)
	return err
}

func commitRaw(tmp, final string) error {
	return os.Rename(tmp, final) // want `os.Rename in persisting package`
}

// --- Legal patterns: everything below must produce no findings. ---

func quarantine(bad, aside string) error {
	//kagura:allow atomicwrite the source file is already complete on disk; the move relocates bytes, it does not commit them
	return os.Rename(bad, aside)
}

func persistAtomic(path string, data []byte) error {
	return frame.WriteFileAtomic(path, data, 0o644)
}

func scratch(dir string) (string, error) {
	f, err := os.CreateTemp(dir, "scratch-*")
	if err != nil {
		return "", err
	}
	name := f.Name()
	return name, f.Close()
}

func load(path string) ([]byte, error) {
	return os.ReadFile(path)
}
