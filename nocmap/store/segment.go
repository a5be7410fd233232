package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The WAL is a sequence of segment files, wal.000001.jsonl onward. The
// highest-numbered segment is active (open for append); everything
// below it is sealed — immutable, awaiting the compactor. Rotation
// (sealing the active segment and opening the next) is a handful of
// metadata syscalls under fs.mu; folding sealed segments into the
// snapshot is the compactor goroutine's job and never touches the
// append path.
const (
	segmentPrefix = "wal."
	segmentSuffix = ".jsonl"

	snapshotFile    = "snapshot.json"
	snapshotTmpFile = snapshotFile + ".tmp"

	// legacyWALFile is the pre-segment single-file WAL; Open migrates it
	// to segment 1 so old stores keep working.
	legacyWALFile = "wal.jsonl"
)

// segmentName formats the on-disk name of segment seq.
func segmentName(seq uint64) string {
	return fmt.Sprintf("%s%06d%s", segmentPrefix, seq, segmentSuffix)
}

// parseSegmentName extracts the sequence number from a segment file
// name, or ok=false for any other name (including the legacy WAL).
func parseSegmentName(name string) (uint64, bool) {
	body, ok := strings.CutPrefix(name, segmentPrefix)
	if !ok {
		return 0, false
	}
	body, ok = strings.CutSuffix(body, segmentSuffix)
	if !ok || body == "" {
		return 0, false
	}
	for _, c := range body {
		if c < '0' || c > '9' {
			return 0, false
		}
	}
	seq, err := strconv.ParseUint(body, 10, 64)
	if err != nil || seq == 0 {
		return 0, false
	}
	return seq, true
}

// listSegments returns the sequence numbers of every segment file in
// dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing %s: %w", dir, err)
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSegmentName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, k int) bool { return seqs[i] < seqs[k] })
	return seqs, nil
}

// replaySegment applies one segment file to state, line by line, and
// returns how many ops it held and the offset of the last whole line's
// end. active marks the segment that was open for appending when the
// process last stopped: only there may the final line be torn (the
// signature of a crash mid-append) — it is skipped and the caller
// truncates it away. Anywhere else, an undecodable line is real
// corruption and fails loudly instead of silently discarding the
// records behind it. pace, when non-nil, is called once per applied op
// so a compaction-pass caller can keep the decode from monopolizing a
// CPU (Open replays flat out and passes nil).
func replaySegment(path string, state *memState, active bool, pace func()) (ops int, good int64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("store: opening wal segment: %w", err)
	}
	defer f.Close()

	r := bufio.NewReaderSize(f, 64<<10) // no line-length cap: ReadBytes grows
	for {
		line, rerr := r.ReadBytes('\n')
		if rerr == io.EOF {
			if len(bytes.TrimSpace(line)) > 0 {
				if !active {
					return ops, good, fmt.Errorf("store: sealed wal segment %s ends mid-line (not the active tail)", filepath.Base(path))
				}
				return ops, good, nil // unterminated tail: torn mid-append
			}
			good += int64(len(line))
			return ops, good, nil
		}
		if rerr != nil {
			return ops, good, fmt.Errorf("store: reading wal segment: %w", rerr)
		}
		advance := int64(len(line))
		if len(bytes.TrimSpace(line)) == 0 {
			good += advance
			continue
		}
		var op Op
		if uerr := json.Unmarshal(line, &op); uerr != nil {
			if _, peekErr := r.Peek(1); peekErr == io.EOF && active {
				return ops, good, nil // torn final line
			}
			return ops, good, fmt.Errorf("store: corrupt wal line at %s offset %d (not the torn tail): %w", filepath.Base(path), good, uerr)
		}
		if aerr := state.apply(op); aerr != nil {
			if _, peekErr := r.Peek(1); peekErr == io.EOF && active {
				return ops, good, nil
			}
			return ops, good, fmt.Errorf("store: invalid wal op at %s offset %d (not the torn tail): %w", filepath.Base(path), good, aerr)
		}
		ops++
		good += advance
		if pace != nil {
			pace()
		}
	}
}

// readSnapshot streams snapshot.json into state and returns the
// highest WAL segment the snapshot has folded (its wal_seq field; 0
// for a missing file or a pre-segment snapshot). The decode is
// token-streamed — one record in memory at a time, never the whole
// multi-GB document in one buffer. pace, when non-nil, runs once per
// decoded record (see replaySegment).
func readSnapshot(path string, state *memState, pace func()) (walSeq uint64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: reading snapshot: %w", err)
	}
	defer f.Close()

	dec := json.NewDecoder(bufio.NewReaderSize(f, 256<<10))
	if err := expectDelim(dec, '{'); err != nil {
		return 0, fmt.Errorf("store: parsing snapshot: %w", err)
	}
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return 0, fmt.Errorf("store: parsing snapshot: %w", err)
		}
		key, _ := keyTok.(string)
		switch key {
		case "wal_seq":
			var seq uint64
			if err := dec.Decode(&seq); err != nil {
				return 0, fmt.Errorf("store: parsing snapshot wal_seq: %w", err)
			}
			walSeq = seq
		case "jobs":
			err = decodeArray(dec, func() error {
				var rec JobRecord
				if err := dec.Decode(&rec); err != nil {
					return err
				}
				state.putJob(rec)
				if pace != nil {
					pace()
				}
				return nil
			})
		case "cache":
			err = decodeArray(dec, func() error {
				var entry CacheEntry
				if err := dec.Decode(&entry); err != nil {
					return err
				}
				state.putCache(entry.Key, entry.Result)
				if pace != nil {
					pace()
				}
				return nil
			})
		case "replicas":
			err = decodeArray(dec, func() error {
				var rec JobRecord
				if err := dec.Decode(&rec); err != nil {
					return err
				}
				state.putReplica(rec)
				if pace != nil {
					pace()
				}
				return nil
			})
		default:
			var skip json.RawMessage
			err = dec.Decode(&skip)
		}
		if err != nil {
			return 0, fmt.Errorf("store: parsing snapshot %q section: %w", key, err)
		}
	}
	if err := expectDelim(dec, '}'); err != nil {
		return 0, fmt.Errorf("store: parsing snapshot: %w", err)
	}
	return walSeq, nil
}

// expectDelim consumes one token and checks it is the given delimiter.
func expectDelim(dec *json.Decoder, want rune) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if d, ok := tok.(json.Delim); !ok || rune(d) != want {
		return fmt.Errorf("unexpected token %v (want %q)", tok, want)
	}
	return nil
}

// decodeArray consumes a JSON array (or a bare null), calling elem once
// per element with the decoder positioned at it.
func decodeArray(dec *json.Decoder, elem func() error) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if tok == nil {
		return nil // null section: an empty pre-segment snapshot
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return fmt.Errorf("unexpected token %v (want array)", tok)
	}
	for dec.More() {
		if err := elem(); err != nil {
			return err
		}
	}
	return expectDelim(dec, ']')
}

// snapshotWriter streams one snapshot document to w: the wal_seq
// coverage watermark first, then each section as a JSON array written
// record by record — the encoder never holds more than one record (plus
// the bufio window) in memory, however large the state.
type snapshotWriter struct {
	w     *bufio.Writer
	err   error
	first bool
}

func newSnapshotWriter(w io.Writer, walSeq uint64) *snapshotWriter {
	sw := &snapshotWriter{w: bufio.NewWriterSize(w, 256<<10)}
	fmt.Fprintf(sw.w, `{"wal_seq":%d`, walSeq)
	return sw
}

func (sw *snapshotWriter) section(name string) {
	if sw.err != nil {
		return
	}
	_, sw.err = fmt.Fprintf(sw.w, `,%q:[`, name)
	sw.first = true
}

func (sw *snapshotWriter) endSection() {
	if sw.err != nil {
		return
	}
	_, sw.err = sw.w.WriteString("]")
}

func (sw *snapshotWriter) record(v any) {
	if sw.err != nil {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		sw.err = err
		return
	}
	if !sw.first {
		if sw.err = sw.w.WriteByte(','); sw.err != nil {
			return
		}
	}
	sw.first = false
	if sw.err = sw.w.WriteByte('\n'); sw.err != nil {
		return
	}
	_, sw.err = sw.w.Write(data)
}

// close finishes the document and flushes the buffer.
func (sw *snapshotWriter) close() error {
	if sw.err == nil {
		_, sw.err = sw.w.WriteString("}\n")
	}
	if sw.err == nil {
		sw.err = sw.w.Flush()
	}
	return sw.err
}

// writeSnapshot streams state to path (created fresh) with walSeq as
// the coverage watermark, fsyncs it and closes it. throttle, when
// non-nil, is called once per record — the bench and crash suites use
// it to stretch a compaction over a controlled wall-clock window.
func writeSnapshot(path string, walSeq uint64, state *memState, throttle func()) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating snapshot: %w", err)
	}
	sw := newSnapshotWriter(f, walSeq)
	emit := func(v any) {
		sw.record(v)
		if throttle != nil {
			throttle()
		}
	}
	sw.section("jobs")
	for _, id := range state.jobOrder {
		emit(state.jobs[id])
	}
	sw.endSection()
	sw.section("cache")
	for _, key := range state.cacheOrder {
		entry := state.cache[key]
		emit(CacheEntry{Key: key, Result: entry.Result})
	}
	sw.endSection()
	sw.section("replicas")
	for _, id := range state.replicaOrder {
		emit(state.replicas[id])
	}
	sw.endSection()
	if err := sw.close(); err != nil {
		f.Close()
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: closing snapshot: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory, persisting renames, creates and deletes
// that happened inside it.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
