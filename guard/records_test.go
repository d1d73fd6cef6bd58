package guard

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// magicBytes is the little-endian byte image of recordMagic.
var magicBytes = []byte{'V', 'C', 'R', '1'}

// writeAll frames every payload into one buffer.
func writeAll(t *testing.T, payloads ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, p := range payloads {
		if _, err := WriteRecord(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestRecordRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte("alpha"),
		{},
		bytes.Repeat([]byte{0xAB}, 4096),
		[]byte(`{"id":"call-7","state":"..."}`),
	}
	got, corrupt, err := ReadRecords(bytes.NewReader(writeAll(t, payloads...)))
	if err != nil {
		t.Fatal(err)
	}
	if len(corrupt) != 0 {
		t.Fatalf("clean stream reported %d corrupt records: %v", len(corrupt), corrupt[0])
	}
	if len(got) != len(payloads) {
		t.Fatalf("want %d records, got %d", len(payloads), len(got))
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestRecordPayloadBitFlipSalvagesRest(t *testing.T) {
	data := writeAll(t, []byte("first"), []byte("second"), []byte("third"))
	// Flip a bit inside the second record's payload (header 16 bytes +
	// "first" + header 16 bytes puts us inside "second").
	data[16+5+16+2] ^= 0x40
	got, corrupt, err := ReadRecords(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || string(got[0]) != "first" || string(got[1]) != "third" {
		t.Fatalf("salvage failed: got %q", got)
	}
	if len(corrupt) != 1 {
		t.Fatalf("want 1 corrupt record, got %d", len(corrupt))
	}
	if corrupt[0].Index != 1 {
		t.Fatalf("corrupt record index = %d, want 1", corrupt[0].Index)
	}
}

func TestRecordHeaderDamageResyncs(t *testing.T) {
	data := writeAll(t, []byte("first"), []byte("second"), []byte("third"))
	// Smash the second record's length field: the header CRC fails and
	// the reader must rescan for the third record's magic rather than
	// trusting the corrupt length.
	data[16+5+4] ^= 0xFF
	got, corrupt, err := ReadRecords(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || string(got[0]) != "first" || string(got[1]) != "third" {
		t.Fatalf("resync failed: got %q", got)
	}
	if len(corrupt) == 0 {
		t.Fatal("damage went unreported")
	}
}

func TestRecordTornTail(t *testing.T) {
	data := writeAll(t, []byte("first"), []byte("second"))
	for _, cut := range []int{len(data) - 1, len(data) - 7, 16 + 5 + 3, 16 + 5 + 16} {
		got, corrupt, err := ReadRecords(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || string(got[0]) != "first" {
			t.Fatalf("cut %d: want only %q salvaged, got %q", cut, "first", got)
		}
		if len(corrupt) != 1 {
			t.Fatalf("cut %d: torn tail unreported", cut)
		}
	}
}

func TestRecordRejectsOversizedPayload(t *testing.T) {
	if _, err := WriteRecord(io.Discard, make([]byte, MaxRecordLen+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestCorruptRecordErrorIsTyped(t *testing.T) {
	data := writeAll(t, []byte("x"))
	data[len(data)-1] ^= 1
	_, corrupt, err := ReadRecords(bytes.NewReader(data))
	if err != nil || len(corrupt) != 1 {
		t.Fatalf("want exactly one corrupt record, got err=%v n=%d", err, len(corrupt))
	}
	var cre *CorruptRecordError
	if !errors.As(error(corrupt[0]), &cre) {
		t.Fatal("corrupt record not an *CorruptRecordError")
	}
}

func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")

	if err := AtomicWriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("generation-1"))
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// A failed save must leave the previous generation intact and no
	// temp debris behind.
	boom := errors.New("injected failure")
	err := AtomicWriteFile(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial garbage")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want injected failure, got %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "generation-1" {
		t.Fatalf("failed save destroyed the previous file: %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("temp debris left behind: %v", names)
	}

	if err := AtomicWriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("generation-2"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "generation-2" {
		t.Fatalf("want generation-2, got %q", got)
	}
}

func TestAtomicWriteFileMissingDir(t *testing.T) {
	err := AtomicWriteFile(filepath.Join(t.TempDir(), "no-such-dir", "f"), func(io.Writer) error { return nil })
	if err == nil {
		t.Fatal("write into a missing directory should fail")
	}
}

// TestScanRecordsFalseAnchor embeds magic bytes inside a corrupted
// record's payload: the resync may test the false anchor, but must still
// reach the genuine next record, and the whole damaged span reports once.
func TestScanRecordsFalseAnchor(t *testing.T) {
	inner := append([]byte("xx"), magicBytes...)
	inner = append(inner, []byte("yy")...)
	data := writeAll(t, inner, []byte("real"))
	// Smash the first header so the scanner must resync.
	data[4] ^= 0xFF
	got, corrupt, err := ReadRecords(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0]) != "real" {
		t.Fatalf("want [real], got %q (corrupt: %d)", got, len(corrupt))
	}
	if len(corrupt) != 1 || corrupt[0].Offset != 0 {
		t.Fatalf("want one report at byte 0, got %v", corrupt)
	}
}

// recordReport is the position of one corruption report.
type recordReport struct {
	Index  int
	Offset int64
}

// TestRecordReportsAtDamageStart pins where damage is reported: one
// report per damaged record or span, at the byte where it starts, the
// same through the incremental scanner and through ReadRecords. The
// three framed records "first", "second", "third" start at bytes 0, 21
// and 43 and end at 64.
func TestRecordReportsAtDamageStart(t *testing.T) {
	clean := writeAll(t, []byte("first"), []byte("second"), []byte("third"))
	damaged := func(edit func([]byte) []byte) []byte {
		return edit(append([]byte(nil), clean...))
	}
	cases := []struct {
		name    string
		data    []byte
		salvage []string
		reports []recordReport
	}{
		{
			name:    "payload_flip",
			data:    damaged(func(d []byte) []byte { d[21+16+2] ^= 0x40; return d }),
			salvage: []string{"first", "third"},
			reports: []recordReport{{Index: 1, Offset: 21}},
		},
		{
			name:    "header_flip",
			data:    damaged(func(d []byte) []byte { d[21+4] ^= 0xFF; return d }),
			salvage: []string{"first", "third"},
			reports: []recordReport{{Index: 1, Offset: 21}},
		},
		{
			name:    "garbage_tail",
			data:    damaged(func(d []byte) []byte { return append(d, bytes.Repeat([]byte{0xEE}, 42)...) }),
			salvage: []string{"first", "second", "third"},
			reports: []recordReport{{Index: 3, Offset: 64}},
		},
		{
			name:    "torn_payload",
			data:    damaged(func(d []byte) []byte { return d[:len(d)-2] }),
			salvage: []string{"first", "second"},
			reports: []recordReport{{Index: 2, Offset: 43}},
		},
		{
			name:    "torn_header",
			data:    damaged(func(d []byte) []byte { return d[:43+7] }),
			salvage: []string{"first", "second"},
			reports: []recordReport{{Index: 2, Offset: 43}},
		},
		{
			name: "payload_flip_then_garbage",
			data: damaged(func(d []byte) []byte {
				d[2*16+5+3] ^= 0x01
				return append(d, bytes.Repeat([]byte{0x5A}, 20)...)
			}),
			salvage: []string{"first", "third"},
			reports: []recordReport{{Index: 1, Offset: 21}, {Index: 3, Offset: 64}},
		},
	}
	check := func(t *testing.T, via string, records [][]byte, corrupt []*CorruptRecordError, salvage []string, reports []recordReport) {
		t.Helper()
		var gotSalvage []string
		for _, r := range records {
			gotSalvage = append(gotSalvage, string(r))
		}
		var gotReports []recordReport
		for _, c := range corrupt {
			gotReports = append(gotReports, recordReport{Index: c.Index, Offset: c.Offset})
		}
		if fmt.Sprint(gotSalvage) != fmt.Sprint(salvage) {
			t.Errorf("%s: salvaged %q, want %q", via, gotSalvage, salvage)
		}
		if fmt.Sprint(gotReports) != fmt.Sprint(reports) {
			t.Errorf("%s: reports %+v, want %+v (%v)", via, gotReports, reports, corrupt)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := NewRecordScanner(bytes.NewReader(tc.data))
			var records [][]byte
			var corrupt []*CorruptRecordError
			for {
				payload, c, err := sc.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if c != nil {
					corrupt = append(corrupt, c)
					continue
				}
				records = append(records, payload)
			}
			check(t, "RecordScanner", records, corrupt, tc.salvage, tc.reports)

			records, corrupt, err := ReadRecords(bytes.NewReader(tc.data))
			if err != nil {
				t.Fatal(err)
			}
			check(t, "ReadRecords", records, corrupt, tc.salvage, tc.reports)
		})
	}
}

func ExampleWriteRecord() {
	var buf bytes.Buffer
	_, _ = WriteRecord(&buf, []byte("session state"))
	records, corrupt, _ := ReadRecords(&buf)
	fmt.Println(len(records), len(corrupt), string(records[0]))
	// Output: 1 0 session state
}
