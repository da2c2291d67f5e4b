package experiments

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/spatialmf/smfl/internal/core"
)

// Journal makes experiment sweeps resumable: every completed cell — one
// (experiment, dataset, method, grid value) combination — is appended as one
// JSON line the moment its (often minutes-long) computation finishes, and a
// rerun pointed at the same journal skips every cell already recorded,
// recomputing only what the interrupted run never reached.
//
// The first line is a header carrying a fingerprint of the Options fields
// that shape results; opening an existing journal with different options is
// refused, since mixing cells from different configurations would silently
// corrupt the tables. A torn final line (the process died mid-append) is
// ignored on load — that cell simply reruns.
type Journal struct {
	path string
	f    *os.File
	w    *bufio.Writer
	done map[string]methodOutcome
}

// journalRecord is one JSONL line: a header (Kind "header", Fingerprint set)
// or a completed cell (Kind "cell", Key/RMS/Note set).
type journalRecord struct {
	Kind        string  `json:"kind"`
	Fingerprint string  `json:"fingerprint,omitempty"`
	Key         string  `json:"key,omitempty"`
	RMS         float64 `json:"rms,omitempty"`
	Note        string  `json:"note,omitempty"`
}

// fingerprint identifies the result-shaping options. Runtime-only fields
// (Ctx, Log, Quiet, Budget — a budget change only reclassifies OOT cells the
// user explicitly reruns) are excluded.
func (o Options) fingerprint() string {
	fp := fmt.Sprintf("scale=%g runs=%d seed=%d missing=%g error=%g maxiter=%d",
		o.Scale, o.Runs, o.Seed, missingRate, errorRate, o.MaxIter)
	// Appended only when non-default so journals written before the spatial
	// index existed keep resuming (their cells were all exact-mode).
	if o.SpatialIndex != core.SpatialExact {
		fp += " spatial=" + o.SpatialIndex.String()
	}
	if o.Updater != core.Multiplicative {
		fp += " updater=" + o.Updater.String()
	}
	if o.BatchCells != 0 {
		fp += fmt.Sprintf(" batch=%d", o.BatchCells)
	}
	return fp
}

// OpenJournal opens (or creates) the journal at path for the given options.
// o must be the same Options value later passed to the experiment functions;
// defaults are applied here the same way they are there, so a zero field and
// its explicit default fingerprint identically.
func OpenJournal(path string, o Options) (*Journal, error) {
	o = o.withDefaults()
	fp := o.fingerprint()
	j := &Journal{path: path, done: make(map[string]methodOutcome)}

	if raw, err := os.ReadFile(path); err == nil && len(raw) > 0 {
		if err := j.load(raw, fp); err != nil {
			return nil, err
		}
	} else if err != nil && !os.IsNotExist(err) {
		return nil, err
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	j.f = f
	j.w = bufio.NewWriter(f)
	if len(j.done) == 0 {
		if st, err := f.Stat(); err == nil && st.Size() > 0 {
			// Existing file whose every line was torn or alien: refuse rather
			// than append a second header into an unreadable file.
			f.Close()
			return nil, fmt.Errorf("experiments: journal %s exists but holds no readable records", path)
		}
		if err := j.append(journalRecord{Kind: "header", Fingerprint: fp}); err != nil {
			f.Close()
			return nil, err
		}
	}
	return j, nil
}

// load replays an existing journal, verifying the header fingerprint and
// collecting completed cells. Unknown kinds are skipped (forward
// compatibility); undecodable lines are tolerated only in final position.
func (j *Journal) load(raw []byte, fp string) error {
	lines := splitLines(raw)
	sawHeader := false
	for i, line := range lines {
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			if i == len(lines)-1 {
				continue // torn final append: that cell reruns
			}
			return fmt.Errorf("experiments: journal %s line %d is corrupt: %v", j.path, i+1, err)
		}
		switch rec.Kind {
		case "header":
			if rec.Fingerprint != fp {
				return fmt.Errorf("experiments: journal %s was written with options %q, current run has %q; use a fresh journal or matching flags",
					j.path, rec.Fingerprint, fp)
			}
			sawHeader = true
		case "cell":
			j.done[rec.Key] = methodOutcome{rms: rec.RMS, note: rec.Note}
		}
	}
	if !sawHeader && len(j.done) > 0 {
		return fmt.Errorf("experiments: journal %s has cells but no header", j.path)
	}
	return nil
}

func splitLines(raw []byte) [][]byte {
	var lines [][]byte
	start := 0
	for i, b := range raw {
		if b == '\n' {
			lines = append(lines, raw[start:i])
			start = i + 1
		}
	}
	if start < len(raw) {
		lines = append(lines, raw[start:])
	}
	return lines
}

// Lookup returns the journaled outcome for a cell key, if any.
func (j *Journal) Lookup(key string) (methodOutcome, bool) {
	out, ok := j.done[key]
	return out, ok
}

// Record appends a completed cell and flushes it to the OS, so a kill right
// after loses nothing already paid for. (No fsync per cell: each costs an
// I/O round-trip per multi-minute computation at best, and the worst a lost
// page buys is recomputing one cell.)
func (j *Journal) Record(key string, out methodOutcome) error {
	j.done[key] = out
	return j.append(journalRecord{Kind: "cell", Key: key, RMS: out.rms, Note: out.note})
}

// Len reports the number of journaled cells.
func (j *Journal) Len() int { return len(j.done) }

func (j *Journal) append(rec journalRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := j.w.Write(append(b, '\n')); err != nil {
		return err
	}
	return j.w.Flush()
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	ferr := j.w.Flush()
	cerr := j.f.Close()
	j.f = nil
	if ferr != nil {
		return ferr
	}
	return cerr
}

var _ io.Closer = (*Journal)(nil)
