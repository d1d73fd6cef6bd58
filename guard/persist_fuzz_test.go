package guard

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzLoad holds guard.Load to its error contract over arbitrary bytes:
// never panic, and every failure is a typed *FormatError or
// *VersionError — an operator can always tell a damaged artifact from a
// release skew. The seeds cover valid artifacts, version skews,
// truncations, and JSON that parses but does not validate (including
// another artifact's envelope).
func FuzzLoad(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("{"))
	f.Add([]byte("null"))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":99,"snapshot":{}}`))
	f.Add([]byte(`{"version":1,"snapshot":{"config":{},"model":{}}}`))
	f.Add([]byte(`{"version":1,"checkpoint":{"saved_at":"2026-01-01T00:00:00Z","sessions":["a","b"]}}`))
	f.Add(bytes.Repeat([]byte(`{"version":1,`), 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		det, err := Load(bytes.NewReader(data))
		if err == nil {
			if det == nil {
				t.Fatal("nil detector with nil error")
			}
			return
		}
		var fe *FormatError
		var ve *VersionError
		if !errors.As(err, &fe) && !errors.As(err, &ve) {
			t.Fatalf("Load error is neither *FormatError nor *VersionError: %T %v", err, err)
		}
	})
}

// FuzzScanRecords throws arbitrary bytes at the record reader: it must
// never panic, total progress must be monotonic (each salvaged record's
// bytes lie inside the input), and the corruption reports must come in
// stream order — Index strictly increasing, Offset non-decreasing and
// inside the input, since every report sits at the first byte of its
// damaged record or span.
func FuzzScanRecords(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("VCR1"))
	f.Add(bytes.Repeat([]byte("VCR1\x00\x00\x00\x00"), 8))
	var buf bytes.Buffer
	_, _ = WriteRecord(&buf, []byte("seed-payload"))
	_, _ = WriteRecord(&buf, []byte{})
	f.Add(buf.Bytes())
	f.Add(append(buf.Bytes(), 0xFF))
	f.Fuzz(func(t *testing.T, data []byte) {
		records, corrupt, err := ReadRecords(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("in-memory read failed: %v", err)
		}
		var total int
		for _, rec := range records {
			total += len(rec) + recordHeaderLen
		}
		if total > len(data) {
			t.Fatalf("salvaged %d framed bytes from a %d byte input", total, len(data))
		}
		for i, c := range corrupt {
			if c.Offset < 0 || c.Offset >= int64(len(data)) {
				t.Fatalf("corrupt record offset %d outside input of %d bytes", c.Offset, len(data))
			}
			if i > 0 && (c.Index <= corrupt[i-1].Index || c.Offset < corrupt[i-1].Offset) {
				t.Fatalf("report %d (index %d, byte %d) out of order after index %d, byte %d",
					i, c.Index, c.Offset, corrupt[i-1].Index, corrupt[i-1].Offset)
			}
			if c.Error() == "" {
				t.Fatal("empty corruption message")
			}
		}
	})
}

// FuzzScanRecordsRoundTrip checks the salvage guarantee constructively:
// frame two known records around fuzz-controlled damage to the middle
// one and require the outer records to survive whenever their own bytes
// are untouched.
func FuzzScanRecordsRoundTrip(f *testing.F) {
	f.Add([]byte("middle"), uint16(3), byte(0x01))
	f.Add([]byte(""), uint16(0), byte(0xFF))
	f.Fuzz(func(t *testing.T, middle []byte, flipAt uint16, flipMask byte) {
		if len(middle) > 1<<12 {
			middle = middle[:1<<12]
		}
		// Keep the magic word out of the fuzz-controlled payload: a
		// payload embedding a crafted rogue header is indistinguishable
		// from a real record after damage to the genuine framing, and the
		// outer-records-survive guarantee deliberately does not cover it.
		middle = bytes.ReplaceAll(middle, magicBytes, []byte("VCR0"))
		var buf bytes.Buffer
		if _, err := WriteRecord(&buf, []byte("head")); err != nil {
			t.Fatal(err)
		}
		headLen := buf.Len()
		if _, err := WriteRecord(&buf, middle); err != nil {
			t.Fatal(err)
		}
		midLen := buf.Len() - headLen
		if _, err := WriteRecord(&buf, []byte("tail")); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		if flipMask != 0 && midLen > 0 {
			data[headLen+int(flipAt)%midLen] ^= flipMask
		}
		records, _, err := ReadRecords(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var sawHead, sawTail bool
		for _, rec := range records {
			if bytes.Equal(rec, []byte("head")) {
				sawHead = true
			}
			if bytes.Equal(rec, []byte("tail")) {
				sawTail = true
			}
		}
		if !sawHead || !sawTail {
			t.Fatalf("undamaged outer records lost (head=%v tail=%v, %d salvaged)", sawHead, sawTail, len(records))
		}
	})
}
