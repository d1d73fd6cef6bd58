package guard

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
)

// FormatError reports a persisted file that could not be parsed at all:
// truncated, corrupt, or not the expected JSON shape. It is distinct
// from a version mismatch (VersionError) so operators can tell a
// damaged file from one written by a different release.
type FormatError struct {
	// What names the artifact kind ("detector").
	What string
	// Err is the underlying decode error.
	Err error
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("guard: %s file truncated or corrupt: %v", e.What, e.Err)
}

func (e *FormatError) Unwrap() error { return e.Err }

// VersionError reports a persisted file written with an unsupported
// format version — likely a newer or older release of this code.
type VersionError struct {
	What      string
	Got, Want int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("guard: unsupported %s file version %d (this build reads version %d)",
		e.What, e.Got, e.Want)
}

// detectorFile wraps the snapshot with a version for forward evolution.
type detectorFile struct {
	Version  int           `json:"version"`
	Snapshot core.Snapshot `json:"snapshot"`
}

const detectorFileVersion = 1

// Save writes the trained detector as JSON, so the training cost (and
// the training data collection) is paid once per deployment.
func (d *Detector) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(detectorFile{Version: detectorFileVersion, Snapshot: d.det.Export()}); err != nil {
		return fmt.Errorf("guard: save detector: %w", err)
	}
	return nil
}

// SaveFile writes the detector to a path crash-safely: the bytes land in
// a same-directory temp file, are synced, and are renamed into place, so
// a crash mid-save never destroys the previous good artifact.
func (d *Detector) SaveFile(path string) error {
	return AtomicWriteFile(path, d.Save)
}

// Load reads a detector saved with Save, revalidating everything. Every
// failure is typed: a truncated or corrupt stream — including one that
// parses as JSON but does not describe a valid detector — returns
// *FormatError, and a file written by a different release returns
// *VersionError. The fuzz targets in persist_fuzz_test.go hold Load to
// exactly that contract over arbitrary input.
func Load(r io.Reader) (*Detector, error) {
	var df detectorFile
	if err := json.NewDecoder(r).Decode(&df); err != nil {
		return nil, &FormatError{What: "detector", Err: err}
	}
	if df.Version != detectorFileVersion {
		return nil, &VersionError{What: "detector", Got: df.Version, Want: detectorFileVersion}
	}
	det, err := core.FromSnapshot(df.Snapshot)
	if err != nil {
		// Parsed but invalid: the snapshot fails revalidation, which on a
		// load path means the artifact is damaged or hand-edited.
		return nil, &FormatError{What: "detector", Err: err}
	}
	d, err := newDetector(df.Snapshot.Config, det)
	if err != nil {
		return nil, &FormatError{What: "detector", Err: err}
	}
	return d, nil
}

// LoadFile reads a detector from a path.
func LoadFile(path string) (*Detector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("guard: %w", err)
	}
	defer f.Close()
	return Load(f)
}
