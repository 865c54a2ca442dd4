package server

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fastsched/internal/batch"
	"fastsched/internal/dag"
)

// Snapshot file format (version 1):
//
//	fastsched-snapshot v1 sha256=<hex digest of the body>\n
//	<JSON body>
//
// The header line carries the format version and a checksum over every
// byte after the newline, so a torn write, a truncation, or a flipped
// bit is detected before any of the body is trusted. Snapshots are
// written to a temp file in the same directory and renamed into place,
// so a crash mid-write leaves the previous snapshot intact and a
// concurrent reader sees either the old file or the new one, never a
// mix. A snapshot that fails the checksum (or doesn't parse) is
// quarantined — renamed to <path>.corrupt-<unix-ms> — and the server
// starts cold instead of crashing; correctness never depends on the
// snapshot, it only buys warm caches.

const (
	snapshotMagic   = "fastsched-snapshot"
	snapshotVersion = 1
)

// ErrCorruptSnapshot marks a snapshot file that failed its integrity
// or format checks. Callers quarantine the file and start cold.
var ErrCorruptSnapshot = errors.New("server: corrupt snapshot")

// snapshotFile is the JSON body of a snapshot.
type snapshotFile struct {
	SavedAtUnixMS int64 `json:"saved_at_unix_ms"`
	// Results are the result-cache entries; keys are hex SHA-256.
	Results []snapshotResult `json:"results"`
	// Graphs are the plan-cache graphs, rebuilt from the plans' CSRs, in
	// the dag JSON format, their edges listed so that decoding rebuilds
	// both slot orders (dag.WriteJSONSlotOrder). Each reads back under
	// the content key its plan was cached under.
	Graphs []json.RawMessage `json:"graphs"`
}

type snapshotResult struct {
	Key string `json:"key"`
	batch.SnapshotResult
}

// snapshotState collects an engine's snapshot-worthy state.
func snapshotState(e *batch.Engine, now time.Time) (*snapshotFile, error) {
	sf := &snapshotFile{SavedAtUnixMS: now.UnixMilli()}
	for _, sr := range e.SnapshotResults() {
		sf.Results = append(sf.Results, snapshotResult{Key: hex.EncodeToString(sr.Key[:]), SnapshotResult: sr})
	}
	for _, g := range e.SnapshotGraphs() {
		var buf bytes.Buffer
		if err := dag.WriteJSONSlotOrder(&buf, g, ""); err != nil {
			return nil, err
		}
		sf.Graphs = append(sf.Graphs, json.RawMessage(bytes.TrimSpace(buf.Bytes())))
	}
	return sf, nil
}

// restoreState installs a loaded snapshot into a fresh engine,
// returning how many results and plans were restored. Entries that
// fail their per-entry sanity checks are skipped individually — one
// bad record costs one cold run, not the whole snapshot.
func restoreState(e *batch.Engine, sf *snapshotFile) (results, plans int) {
	entries := make([]batch.SnapshotResult, 0, len(sf.Results))
	for _, sr := range sf.Results {
		keyBytes, err := hex.DecodeString(sr.Key)
		if err != nil || len(keyBytes) != 32 {
			continue
		}
		ent := sr.SnapshotResult
		copy(ent.Key[:], keyBytes)
		entries = append(entries, ent)
	}
	results = e.RestoreResults(entries)
	graphs := make([]*dag.Graph, 0, len(sf.Graphs))
	for _, raw := range sf.Graphs {
		g, _, err := dag.ReadJSON(bytes.NewReader(raw))
		if err != nil {
			continue
		}
		graphs = append(graphs, g)
	}
	plans = e.WarmGraphs(graphs)
	return results, plans
}

// saveSnapshot atomically writes sf to path: temp file in the same
// directory, fsync, rename.
func saveSnapshot(path string, sf *snapshotFile) error {
	body, err := json.Marshal(sf)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(body)
	header := fmt.Sprintf("%s v%d sha256=%s\n", snapshotMagic, snapshotVersion, hex.EncodeToString(sum[:]))

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.WriteString(header); err != nil {
		return cleanup(err)
	}
	if _, err := tmp.Write(body); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// loadSnapshot reads and verifies path. A missing file returns
// (nil, nil) — a cold start, not an error. Integrity or format
// failures return ErrCorruptSnapshot (wrapped with detail).
func loadSnapshot(path string) (*snapshotFile, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()

	br := bufio.NewReader(f)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("%w: unreadable header: %v", ErrCorruptSnapshot, err)
	}
	var version int
	var sumHex string
	if _, err := fmt.Sscanf(header, snapshotMagic+" v%d sha256=%s\n", &version, &sumHex); err != nil {
		return nil, fmt.Errorf("%w: bad header %q", ErrCorruptSnapshot, header)
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("%w: unsupported version %d (want %d)", ErrCorruptSnapshot, version, snapshotVersion)
	}
	wantSum, err := hex.DecodeString(sumHex)
	if err != nil || len(wantSum) != 32 {
		return nil, fmt.Errorf("%w: bad checksum field %q", ErrCorruptSnapshot, sumHex)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(br); err != nil {
		return nil, fmt.Errorf("%w: truncated body: %v", ErrCorruptSnapshot, err)
	}
	if sum := sha256.Sum256(body.Bytes()); !bytes.Equal(sum[:], wantSum) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptSnapshot)
	}
	var sf snapshotFile
	if err := json.Unmarshal(body.Bytes(), &sf); err != nil {
		return nil, fmt.Errorf("%w: body does not parse: %v", ErrCorruptSnapshot, err)
	}
	return &sf, nil
}

// quarantineSnapshot moves a corrupt snapshot aside so the next save
// starts fresh and the operator can inspect the evidence. Returns the
// quarantine path ("" when the rename itself failed; the server then
// simply overwrites the corrupt file on its next save).
func quarantineSnapshot(path string, now time.Time) string {
	qpath := fmt.Sprintf("%s.corrupt-%d", path, now.UnixMilli())
	if err := os.Rename(path, qpath); err != nil {
		return ""
	}
	return qpath
}
