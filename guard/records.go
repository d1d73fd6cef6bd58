package guard

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Checksummed record framing for session-state artifacts. A record file
// is a sequence of independently-verifiable records:
//
//	magic  u32 LE  ("VCR1") — resync anchor
//	length u32 LE  — payload bytes
//	crc    u32 LE  — CRC-32 (IEEE) of the payload
//	hcrc   u32 LE  — CRC-32 (IEEE) of the 12 header bytes above
//	payload [length]byte
//
// The double CRC is what makes partial-corruption recovery possible: a
// flipped bit in a payload fails its CRC but leaves the (valid) header
// trustworthy, so the reader skips exactly that record and salvages the
// rest; a flipped bit in a header fails the header CRC and the reader
// slides forward to the next valid header instead of trusting a corrupt
// length. A torn tail (crash mid-append, short write) reads as a
// truncated final record and damages nothing before it.

// recordMagic anchors each record header ("VCR1" little-endian).
const recordMagic uint32 = 0x31524356

// recordHeaderLen is the fixed framing overhead per record.
const recordHeaderLen = 16

// MaxRecordLen bounds a single record payload (16 MiB). WriteRecord
// refuses larger payloads; the reader treats a larger decoded length as
// header corruption, so a damaged length field cannot make it skip the
// rest of the stream.
const MaxRecordLen = 16 << 20

// CorruptRecordError reports one damaged span found while reading a
// record stream. ReadRecords returns one per span alongside every record
// it could salvage; callers count them, log them, and treat the affected
// sessions as lost — never silently dropped.
type CorruptRecordError struct {
	// Index is the ordinal of the damaged record in the stream, counting
	// salvaged and damaged records alike.
	Index int
	// Offset is the byte offset where the damaged record or span starts.
	Offset int64
	// Reason describes the damage (payload checksum, header, truncation).
	Reason string
}

func (e *CorruptRecordError) Error() string {
	return fmt.Sprintf("guard: record %d at byte %d corrupt: %s", e.Index, e.Offset, e.Reason)
}

// WriteRecord frames one payload onto w. It returns the bytes written
// (header plus payload) so callers can meter checkpoint sizes.
func WriteRecord(w io.Writer, payload []byte) (int, error) {
	if len(payload) > MaxRecordLen {
		return 0, fmt.Errorf("guard: record payload of %d bytes exceeds the %d byte limit", len(payload), MaxRecordLen)
	}
	var hdr [recordHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], recordMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.ChecksumIEEE(hdr[0:12]))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("guard: write record header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return 0, fmt.Errorf("guard: write record payload: %w", err)
	}
	return recordHeaderLen + len(payload), nil
}

// ReadRecords reads r to EOF and returns every intact record payload in
// order, plus one CorruptRecordError per damaged span it skipped. The
// error return is reserved for I/O failures reading r itself; corrupt
// framing never aborts the scan.
func ReadRecords(r io.Reader) ([][]byte, []*CorruptRecordError, error) {
	var (
		records [][]byte
		corrupt []*CorruptRecordError
	)
	sc := NewRecordScanner(r)
	for {
		payload, c, err := sc.Next()
		switch {
		case err == io.EOF:
			return records, corrupt, nil
		case err != nil:
			return nil, nil, err
		case c != nil:
			corrupt = append(corrupt, c)
		default:
			records = append(records, payload)
		}
	}
}

// RecordScanner reads the record framing incrementally from a stream, so
// a reader need not buffer the whole image (a migration handoff over a
// faulty link); ReadRecords is a loop over it. A damaged header slides
// forward a byte at a time until a valid header, a damaged payload is
// skipped by its (trusted) header length, and consecutive garbage bytes
// coalesce into one corruption report per span, at the byte where the
// damaged record or span starts.
type RecordScanner struct {
	br      *bufio.Reader
	off     int64
	index   int
	damaged bool // inside a garbage span; suppress per-byte reports
}

// NewRecordScanner wraps r for incremental record reads.
func NewRecordScanner(r io.Reader) *RecordScanner {
	return &RecordScanner{br: bufio.NewReaderSize(r, 64<<10)}
}

// Next returns the next intact record payload, or one *CorruptRecordError
// per damaged span encountered before it (with a nil payload; call Next
// again to continue), or a terminal error: io.EOF at a clean end of
// stream, or the reader's own failure. A truncated final record reports
// as corruption first and io.EOF on the following call.
func (s *RecordScanner) Next() ([]byte, *CorruptRecordError, error) {
	for {
		hdr, err := s.br.Peek(recordHeaderLen)
		if err != nil {
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				return nil, nil, fmt.Errorf("guard: scan records: %w", err)
			}
			if len(hdr) == 0 {
				return nil, nil, io.EOF
			}
			// Trailing bytes too short for a header end the stream; inside
			// a garbage span they are part of it.
			c := s.damageOnce(fmt.Sprintf("truncated header: %d trailing bytes", len(hdr)))
			s.skip(len(hdr))
			if c != nil {
				return nil, c, nil
			}
			continue
		}
		var bad string
		length := int(binary.LittleEndian.Uint32(hdr[4:8]))
		switch {
		case binary.LittleEndian.Uint32(hdr[12:16]) != crc32.ChecksumIEEE(hdr[0:12]):
			bad = "header checksum mismatch"
		case binary.LittleEndian.Uint32(hdr[0:4]) != recordMagic:
			// A valid header CRC over a wrong magic: bytes that merely
			// look framed.
			bad = "bad magic"
		case length > MaxRecordLen:
			bad = fmt.Sprintf("implausible length %d", length)
		}
		if bad != "" {
			c := s.damageOnce(bad)
			s.skip(1)
			if c != nil {
				return nil, c, nil
			}
			continue
		}
		start := s.off
		wantCRC := binary.LittleEndian.Uint32(hdr[8:12])
		s.skip(recordHeaderLen)
		payload := make([]byte, length)
		n, err := io.ReadFull(s.br, payload)
		s.off += int64(n)
		if err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil, s.damage(start, fmt.Sprintf("truncated payload: need %d bytes, have %d", length, n)), nil
			}
			return nil, nil, fmt.Errorf("guard: scan records: %w", err)
		}
		if crc32.ChecksumIEEE(payload) != wantCRC {
			// The header was intact, so the length was trustworthy: the
			// read landed exactly past this record.
			return nil, s.damage(start, "payload checksum mismatch"), nil
		}
		s.damaged = false
		s.index++
		return payload, nil, nil
	}
}

// damage reports one damaged record that starts at byte off.
func (s *RecordScanner) damage(off int64, reason string) *CorruptRecordError {
	c := &CorruptRecordError{Index: s.index, Offset: off, Reason: reason}
	s.index++
	s.damaged = false
	return c
}

// damageOnce reports a garbage span at its first byte only: while the
// scanner slides through it every position fails the header check, and
// the span gets one report.
func (s *RecordScanner) damageOnce(reason string) *CorruptRecordError {
	if s.damaged {
		return nil
	}
	c := s.damage(s.off, reason)
	s.damaged = true
	return c
}

// skip discards n buffered bytes.
func (s *RecordScanner) skip(n int) {
	d, _ := s.br.Discard(n)
	s.off += int64(d)
}

// AtomicWriteFile writes a file crash-safely: the content goes to a
// temporary file in the same directory, is flushed to stable storage
// (Sync), and only then renamed over path. A crash at any point leaves
// either the previous file intact or the complete new one — never a
// truncated hybrid. Stray temporary files from interrupted saves are
// named "<base>.tmp-*" beside path; recovery readers must ignore them.
func AtomicWriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-")
	if err != nil {
		return fmt.Errorf("guard: create temp file: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
		return err
	}
	if err := write(tmp); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("guard: sync %s: %w", tmpName, err))
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("guard: close %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("guard: rename into place: %w", err)
	}
	// Best-effort directory sync so the rename itself is durable; not
	// all filesystems support it, so failures are ignored.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}
