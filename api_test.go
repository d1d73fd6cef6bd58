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

// TestGuardDetectEntryPoints pins guard's detection API to one entry
// point per input shape: a window pair, a recorded trace, timestamped
// lossy samples, an annotated stream, the bit-exact stream reference,
// and the batch pool. A new Detect* variant has to replace one of these,
// not sit beside it.
func TestGuardDetectEntryPoints(t *testing.T) {
	want := []string{
		"BatchDetector.Detect",
		"Detector.Detect",
		"Detector.DetectSamples",
		"Detector.DetectStreamBatch",
		"Detector.DetectStreamSamples",
		"Detector.DetectTrace",
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
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || !strings.HasPrefix(fn.Name.Name, "Detect") {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					name = id.Name + "." + name
				}
			}
			got = append(got, name)
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("guard exports Detect* entry points\n  %v\nwant exactly\n  %v", got, want)
	}
}
