package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestGuardExportedSurface pins every exported top-level name and every
// exported method of guard, so the API cannot regrow unnoticed. guard
// exports detection, simulation, session state and (until it moves to
// an internal package) the record storage layer. It keeps one Detect*
// entry point per input shape: a window pair, a recorded trace,
// timestamped lossy samples, an annotated stream and the bit-exact
// stream reference. A new name has to replace one of these, or be added
// here on purpose.
func TestGuardExportedSurface(t *testing.T) {
	want := []string{
		"AtomicWriteFile",
		"CorruptRecordError",
		"CorruptRecordError.Error",
		"DefaultOptions",
		"DefaultStreamBandRadius",
		"DefaultStreamConfig",
		"Detector",
		"Detector.CombineVerdicts",
		"Detector.Detect",
		"Detector.DetectSamples",
		"Detector.DetectStreamBatch",
		"Detector.DetectStreamSamples",
		"Detector.DetectTrace",
		"Detector.NewStreamDetector",
		"Detector.ResumeStreamDetector",
		"Detector.Save",
		"Detector.SaveFile",
		"Detector.Threshold",
		"FormatError",
		"FormatError.Error",
		"FormatError.Unwrap",
		"Load",
		"LoadFile",
		"MaxRecordLen",
		"NewRecordScanner",
		"Options",
		"PeerForger",
		"PeerGenuine",
		"PeerKind",
		"PeerKind.String",
		"PeerReenact",
		"PeerReplay",
		"ReadRecords",
		"ReasonCode",
		"ReasonCode.String",
		"ReasonExtraction",
		"ReasonGapRatio",
		"ReasonLandmarkLoss",
		"ReasonNoChallenge",
		"ReasonNone",
		"ReasonStale",
		"RecordScanner",
		"RecordScanner.Next",
		"Session",
		"SimOptions",
		"Simulate",
		"SimulateMany",
		"StreamConfig",
		"StreamConfig.Validate",
		"StreamDetector",
		"StreamDetector.Export",
		"StreamDetector.Finish",
		"StreamDetector.Flagged",
		"StreamDetector.Latency",
		"StreamDetector.Push",
		"StreamDetector.Results",
		"StreamDetector.Windows",
		"StreamQuality",
		"StreamQuality.Validate",
		"StreamReport",
		"StreamSample",
		"StreamState",
		"StreamState.Validate",
		"Train",
		"TrainFromTraces",
		"Verdict",
		"VersionError",
		"VersionError.Error",
		"WindowResult",
		"WriteRecord",
	}
	files, err := filepath.Glob(filepath.Join("guard", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		af, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, d := range af.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					got = append(got, d.Name.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
					got = append(got, id.Name+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							got = append(got, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								got = append(got, n.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(got)
	for _, name := range got {
		if !slices.Contains(want, name) {
			t.Errorf("guard exports %s, which the list does not pin", name)
		}
	}
	for _, name := range want {
		if !slices.Contains(got, name) {
			t.Errorf("guard no longer exports %s", name)
		}
	}
	if !slices.IsSorted(want) {
		t.Error("the pinned list is not sorted")
	}
}
