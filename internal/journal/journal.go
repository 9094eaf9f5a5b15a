// Package journal is the durable intent log behind crash-tolerant serving:
// an append-only, CRC-framed, atomically-compacted record of what the
// service promised to do but has not yet finished. simsvc writes through it
// on job submit and settle; the campaign engine writes through it on wave
// boundaries. After a crash, the fold of the journal (pending submits,
// unfinished campaigns) is exactly what a restarted process replays.
//
// Durability model: appends go to an O_APPEND file descriptor with no
// per-record fsync. A SIGKILL — the crash the chaos harness drills — cannot
// lose a completed write(): the bytes live in the OS page cache and survive
// the process. Only a kernel crash or power loss can drop the tail, and the
// fold rules make that safe: a lost submit or wave record costs
// recomputation (replay is idempotent, the content-addressed cache and store
// tier make it cheap), a lost settle causes one redundant resubmit that
// immediately coalesces or hits the cache. The segment is fsynced at
// compaction (via frame.WriteFileAtomic) and on Close, so a graceful shutdown
// leaves a fully synced log.
//
// Corruption model, mirroring the store tier: a torn or bit-flipped tail is
// truncated at the last decodable record on open; a segment whose header is
// unreadable is quarantined (moved aside for inspection, never deleted
// silently) and the journal degrades to an empty replay. Open never fails on
// corrupt content — only on real IO errors.
package journal

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"kagura/internal/faultinject"
	"kagura/internal/frame"
)

// segmentName is the single live segment file inside the journal directory.
const segmentName = "journal.kjl"

// quarantineDirName holds segments whose header failed to decode.
const quarantineDirName = "quarantine"

// DefaultMaxSegmentBytes is the compaction threshold: once the live segment
// grows past it, the next append rewrites the segment from the folded state.
// Settled jobs and finished campaigns vanish at that point, so a long-lived
// service's journal stays proportional to its in-flight work, not its
// history.
const DefaultMaxSegmentBytes = 4 << 20

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("journal: closed")

// Options tunes Open. The zero value is production configuration.
type Options struct {
	// MaxSegmentBytes overrides the compaction threshold; 0 means
	// DefaultMaxSegmentBytes. Tests shrink it to exercise rotation.
	MaxSegmentBytes int64
}

// MetricsSnapshot is a point-in-time copy of the journal's counters, fed
// into the simsvc Prometheus exposition as the kagura_journal_* families.
type MetricsSnapshot struct {
	Appends            int64 `json:"appends"`
	AppendErrors       int64 `json:"appendErrors"`
	Rotations          int64 `json:"rotations"`
	CorruptSegments    int64 `json:"corruptSegments"`
	TornBytesTruncated int64 `json:"tornBytesTruncated"`
	RecoveredRecords   int64 `json:"recoveredRecords"`
	SizeBytes          int64 `json:"sizeBytes"`
	PendingJobs        int   `json:"pendingJobs"`
	Campaigns          int   `json:"campaigns"`
}

// Journal is an open intent log. All methods are safe for concurrent use.
type Journal struct {
	dir  string
	path string

	mu     sync.Mutex
	f      *os.File
	size   int64
	closed bool
	st     *State
	// rotateAbove suppresses re-attempting an unproductive compaction on
	// every append: after a rotation that cannot shrink the segment (or one
	// that failed), rotation waits until the segment grows past this.
	rotateAbove int64
	maxBytes    int64
	met         struct {
		appends         int64
		appendErrors    int64
		rotations       int64
		corruptSegments int64
		tornBytes       int64
		recovered       int64
	}
}

// Open opens (creating if needed) the journal in dir with default options.
func Open(dir string) (*Journal, error) { return OpenOptions(dir, Options{}) }

// OpenOptions opens the journal in dir, recovering whatever the previous
// process left: a clean segment folds into state, a torn tail is truncated,
// an unreadable segment is quarantined and the journal starts empty. The
// returned error is nil unless the directory or file cannot be operated on.
func OpenOptions(dir string, opts Options) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: create dir: %w", err)
	}
	j := &Journal{
		dir:      dir,
		path:     filepath.Join(dir, segmentName),
		st:       newState(),
		maxBytes: opts.MaxSegmentBytes,
	}
	if j.maxBytes <= 0 {
		j.maxBytes = DefaultMaxSegmentBytes
	}

	data, err := os.ReadFile(j.path)
	fresh := errors.Is(err, fs.ErrNotExist)
	if err != nil && !fresh {
		return nil, fmt.Errorf("journal: read segment: %w", err)
	}
	if !fresh {
		end, headerErr, _ := scanSegment(data, func(rec Record) {
			j.st.apply(rec)
			j.met.recovered++
		})
		switch {
		case len(data) < headerLen:
			// A crash between create and header write leaves a short file; it
			// carries no records, so restart it rather than quarantine it.
			j.met.tornBytes += int64(len(data))
			if err := os.Truncate(j.path, 0); err != nil {
				return nil, fmt.Errorf("journal: truncate torn header: %w", err)
			}
			fresh = true
		case headerErr != nil:
			// Wrong magic or version: not ours to interpret. Move it aside and
			// degrade to an empty replay — never crash, never silently delete.
			j.met.corruptSegments++
			frame.Quarantine(filepath.Join(j.dir, quarantineDirName), j.path)
			fresh = true
		case end < len(data):
			// Torn or corrupt tail: everything after the first undecodable
			// frame is untrustworthy in an append-only log. Cut it off so
			// new appends land after the last good record.
			j.met.tornBytes += int64(len(data) - end)
			if err := os.Truncate(j.path, int64(end)); err != nil {
				return nil, fmt.Errorf("journal: truncate torn tail: %w", err)
			}
		}
		j.size = int64(end)
	}

	f, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open segment: %w", err)
	}
	j.f = f
	if fresh {
		hdr := EncodeHeader()
		if _, err := f.Write(hdr); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: write header: %w", err)
		}
		j.size = int64(len(hdr))
	}
	return j, nil
}

// scanSegment decodes a segment's header, then its records in file order,
// handing each to fn, and stops at the first frame that does not decode. It
// returns the offset just past the last good record, the header error if the
// header itself is unreadable, and the error at the first bad frame. Open's
// recovery and Inspect share it, so they can never disagree on where a
// segment's good prefix ends.
func scanSegment(data []byte, fn func(Record)) (end int, headerErr, damage error) {
	if err := DecodeHeader(data); err != nil {
		return 0, err, nil
	}
	end = headerLen
	for end < len(data) {
		rec, n, err := DecodeRecord(data[end:])
		if err != nil {
			return end, nil, err
		}
		fn(rec)
		end += n
	}
	return end, nil, nil
}

// Append encodes rec, validates it, and appends it to the live segment,
// folding it into the in-memory state on success. Appends past the
// compaction threshold trigger an atomic segment rewrite. The "journal.append"
// fault point fires here (error kind refuses the append, corrupt kind
// bit-flips the framed bytes so recovery paths get exercised end to end).
func (j *Journal) Append(rec Record) error {
	blob, err := EncodeRecord(rec)
	if err != nil {
		j.mu.Lock()
		j.met.appendErrors++
		j.mu.Unlock()
		return err
	}
	blob = faultinject.JournalAppend.CorruptBytes(blob)

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if err := faultinject.JournalAppend.FireErr(); err != nil {
		j.met.appendErrors++
		return err
	}
	if _, err := j.f.Write(blob); err != nil {
		j.met.appendErrors++
		// A partial write leaves a torn frame; pull the file back to the
		// last whole record so later appends stay decodable. Best effort —
		// if it fails too, recovery truncates the same bytes on next open.
		os.Truncate(j.path, j.size)
		return fmt.Errorf("journal: append: %w", err)
	}
	j.size += int64(len(blob))
	j.st.apply(rec)
	j.met.appends++
	if j.size > j.maxBytes && j.size >= j.rotateAbove {
		j.rotateLocked()
	}
	return nil
}

// rotateLocked compacts the segment: the folded state is rewritten as a
// fresh segment (settles and finished campaigns disappear) through
// frame.WriteFileAtomic, so a crash at any instant leaves either the old or
// the new segment — never a mix. Rotation failures are absorbed: the
// oversized segment stays valid, and rotateAbove defers the retry.
func (j *Journal) rotateLocked() {
	defer func() {
		// Whether this rotation shrank the segment or not, wait for real
		// growth before trying again.
		if j.size > j.maxBytes {
			j.rotateAbove = j.size + j.maxBytes/4
		} else {
			j.rotateAbove = 0
		}
	}()
	if err := faultinject.JournalRotate.FireErr(); err != nil {
		return
	}
	recs := j.st.records()
	buf := EncodeHeader()
	for _, rec := range recs {
		blob, err := EncodeRecord(rec)
		if err != nil {
			return
		}
		buf = append(buf, blob...)
	}
	if int64(len(buf)) >= j.size {
		return
	}
	if err := frame.WriteFileAtomic(j.path, buf, 0o644); err != nil {
		return
	}
	// The rename replaced the inode our append fd points at; reopen so new
	// appends land in the compacted segment.
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The compacted segment is on disk but unopenable — keep appending
		// to the old fd's (now unlinked) inode would lose records, so fail
		// closed: further appends error until reopened.
		j.f.Close()
		j.closed = true
		return
	}
	j.f.Close()
	j.f = f
	j.size = int64(len(buf))
	j.met.rotations++
}

// State returns a copy of the journal's fold: pending job submits and
// unfinished campaigns. Safe to walk without further locking.
func (j *Journal) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.clone()
}

// Metrics returns a snapshot of the journal's counters.
func (j *Journal) Metrics() MetricsSnapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return MetricsSnapshot{
		Appends:            j.met.appends,
		AppendErrors:       j.met.appendErrors,
		Rotations:          j.met.rotations,
		CorruptSegments:    j.met.corruptSegments,
		TornBytesTruncated: j.met.tornBytes,
		RecoveredRecords:   j.met.recovered,
		SizeBytes:          j.size,
		PendingJobs:        len(j.st.Pending),
		Campaigns:          len(j.st.Campaigns),
	}
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Close syncs and closes the segment. Further Appends return ErrClosed.
// Closing twice is safe.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.f == nil {
		return nil
	}
	serr := j.f.Sync()
	cerr := j.f.Close()
	j.f = nil
	if serr != nil {
		return fmt.Errorf("journal: sync on close: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("journal: close: %w", cerr)
	}
	return nil
}

// Inspection is a read-only view of a segment, for `kagura-ckpt journal ls`.
type Inspection struct {
	// Path is the segment file inspected.
	Path string
	// Records are the decodable records in file order.
	Records []Record
	// State is their fold.
	State State
	// SizeBytes is the file length on disk.
	SizeBytes int64
	// TornBytes counts bytes after the last decodable record (0 for clean).
	TornBytes int64
	// Damage is the decode error at the first undecodable frame, nil for a
	// clean segment. HeaderErr is set instead when the header itself is
	// unreadable (verify would quarantine such a segment).
	Damage    error
	HeaderErr error
}

// Inspect reads the segment in dir without mutating anything — no
// truncation, no quarantine. A missing segment is an empty inspection, not
// an error; only real IO failures error.
func Inspect(dir string) (*Inspection, error) {
	path := filepath.Join(dir, segmentName)
	ins := &Inspection{Path: path, State: newState().clone()}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return ins, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: read segment: %w", err)
	}
	ins.SizeBytes = int64(len(data))
	st := newState()
	end, headerErr, damage := scanSegment(data, func(rec Record) {
		ins.Records = append(ins.Records, rec)
		st.apply(rec)
	})
	ins.HeaderErr, ins.Damage = headerErr, damage
	switch {
	case len(data) < headerLen:
		ins.TornBytes = int64(len(data))
	case headerErr == nil:
		ins.TornBytes = int64(len(data) - end)
	}
	ins.State = st.clone()
	return ins, nil
}
