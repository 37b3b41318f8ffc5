package durable

import (
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// ErrCrashed is returned by every durable operation after a planned crash
// point fires (or once the manager is torn down by one). The cluster treats
// it, like any failure the manager latches (see Manager.Err), as fail-stop:
// the process is "dead" and must be recovered from disk.
var ErrCrashed = errors.New("durable: simulated crash")

// Fingerprint identifies the cluster shape a state directory belongs to.
// Recovery refuses to load state written by a differently-shaped cluster —
// a mismatched geometry would deserialize cleanly and then corrupt silently.
type Fingerprint struct {
	Kind      string // "independent" or "split"
	Members   int
	Levels    int
	BlockSize int
	Z         int
	Seed      uint64
	Parity    bool
}

// Hash condenses the fingerprint into the 8 bytes embedded in every file
// header. FNV-1a over the printed form is plenty: this is an operator
// mistake detector, not a security boundary (the seals are).
func (f Fingerprint) Hash() [8]byte {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%d|%d|%d|%t", f.Kind, f.Members, f.Levels, f.BlockSize, f.Z, f.Seed, f.Parity)
	var out [8]byte
	h.Sum(out[:0])
	return out
}

// RecoveryReport summarizes what Recover (and the cluster-level scrub pass
// that follows it) did, for operator runbooks and tests.
type RecoveryReport struct {
	CheckpointSeq        uint64   // seq of the checkpoint actually loaded
	CheckpointsSkipped   int      // newer checkpoints rejected as invalid
	RecordsReplayed      int      // journal records replayed on top
	TornTail             bool     // journal ended mid-group (expected after a crash)
	BucketsScanned       int      // scrub: sealed buckets verified
	BucketsRepaired      int      // scrub: buckets rebuilt from parity
	BucketsUnrecoverable int      // scrub: buckets with no redundancy left
	Poisoned             []uint64 // addrs newly lost to unrecoverable buckets
}

// Manager owns one cluster's state directory: the rotating checkpoint files
// (checkpoint-<seq>.ckpt) and the journal that continues each checkpoint
// (journal-<seq>.wal). All methods are safe for concurrent use, though the
// cluster serializes commits itself.
type Manager struct {
	mu        sync.Mutex
	dir       string
	key       []byte
	fp        [8]byte
	blockSize int
	fsync     bool

	jf      *os.File
	aead    cipher.AEAD       // the open journal's, keyed by its salt
	ad      [4 + tagSize]byte // the next group's count, then the previous tag
	nonce   [12]byte          // the next group's: its first seq (see fileAEAD)
	nextSeq uint64            // seq the next appended record must carry
	ckpt    uint64            // seq of the newest checkpoint written/loaded

	crashAfter int // records until the planned crash; -1 when disarmed
	tearBytes  int
	err        error // the first failure, latched: see Err

	recBuf []byte // reusable sealed-group scratch (count + records + tag)
}

// Open attaches a manager to dir, creating it if needed. key seals every
// file (each under its own key, derived from key and the file's salt); fp pins the cluster shape; fsync controls whether commits hit
// stable storage before returning (off keeps seeded chaos sweeps fast).
func Open(dir string, key []byte, fp Fingerprint, blockSize int, fsync bool) (*Manager, error) {
	if blockSize <= 0 || blockSize > maxJournalBlockSize {
		return nil, fmt.Errorf("durable: block size %d out of range", blockSize)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: create state dir: %w", err)
	}
	return &Manager{
		dir:        dir,
		key:        append([]byte(nil), key...),
		fp:         fp.Hash(),
		blockSize:  blockSize,
		fsync:      fsync,
		crashAfter: -1,
	}, nil
}

// The state directory's file names, each by its base sequence number.
const checkpointName, journalName = "checkpoint-%016x.ckpt", "journal-%016x.wal"

func checkpointPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf(checkpointName, seq))
}

func journalPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf(journalName, seq))
}

// fileSeqs lists the sequence numbers of the files in dir named by name
// (checkpointName or journalName, or either with a suffix), ascending. A
// name counts only when it formats back to itself: Sscanf ignores trailing
// input, so a checkpoint's leftover ".tmp" would scan as the checkpoint.
func fileSeqs(dir, name string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		var seq uint64
		if n, _ := fmt.Sscanf(e.Name(), name, &seq); n == 1 && fmt.Sprintf(name, seq) == e.Name() {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// HasState reports whether dir already holds checkpoints. NewCluster uses
// it to refuse to clobber a recoverable directory.
func (m *Manager) HasState() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	seqs, err := fileSeqs(m.dir, checkpointName)
	return err == nil && len(seqs) > 0
}

// WriteCheckpoint atomically persists cp, rotates the journal to a fresh
// file based at cp.Seq, and prunes files made redundant. On return the
// checkpoint alone reproduces all state up to and including access cp.Seq.
// A failure at any step is latched (see Err).
func (m *Manager) WriteCheckpoint(cp *Checkpoint) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err == nil {
		m.err = m.writeCheckpoint(cp)
	}
	return m.err
}

func (m *Manager) writeCheckpoint(cp *Checkpoint) error {
	cp.FP = m.fp
	enc := encodeCheckpoint(m.key, cp)
	final := checkpointPath(m.dir, cp.Seq)
	tmp := final + ".tmp"
	if err := m.writeFile(tmp, enc); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("durable: publish checkpoint: %w", err)
	}

	// Rotate the journal: everything up to cp.Seq is now in the checkpoint.
	if m.jf != nil {
		m.jf.Close()
		m.jf = nil
	}
	hdr := journalHeader{FP: m.fp, BaseSeq: cp.Seq, BlockSize: m.blockSize}
	m.aead = fileAEAD(m.key, &hdr.Salt, true)
	var h codec
	h.header(&hdr)
	h.seal(m.aead, make([]byte, 12), h.b, len(h.b), 0)
	copy(m.ad[4:], h.b[len(h.b)-tagSize:])
	path := journalPath(m.dir, cp.Seq)
	if err := m.writeFile(path, h.b); err != nil {
		return err
	}
	// The renamed checkpoint and the new journal are directory entries:
	// without this a power cut could drop both after records appended to
	// the new journal were already acknowledged.
	if m.fsync {
		if err := syncDir(m.dir); err != nil {
			return fmt.Errorf("durable: sync state dir: %w", err)
		}
	}
	jf, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return fmt.Errorf("durable: open journal: %w", err)
	}
	m.jf = jf
	m.nextSeq = cp.Seq + 1
	m.ckpt = cp.Seq
	m.prune(cp.Seq)
	return nil
}

// prune removes files that can no longer matter: all but the newest two
// checkpoints (the newest plus one fallback), journals older than the
// fallback checkpoint's base, and the temp file of any checkpoint whose
// write never finished (a crash or a failed write leaves one).
func (m *Manager) prune(newest uint64) {
	seqs, err := fileSeqs(m.dir, checkpointName)
	if err != nil {
		return
	}
	tmps, _ := fileSeqs(m.dir, checkpointName+".tmp")
	for _, s := range tmps {
		os.Remove(checkpointPath(m.dir, s) + ".tmp")
	}
	keepFrom := newest
	if len(seqs) >= 2 {
		keepFrom = seqs[len(seqs)-2]
	}
	for _, s := range seqs {
		if len(seqs) > 2 && s < keepFrom {
			os.Remove(checkpointPath(m.dir, s))
		}
	}
	journals, _ := fileSeqs(m.dir, journalName)
	for _, s := range journals {
		if s < keepFrom {
			os.Remove(journalPath(m.dir, s))
		}
	}
}

// writeFile writes data to path, syncing when the manager is in fsync mode.
func (m *Manager) writeFile(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("durable: create %s: %w", filepath.Base(path), err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("durable: write %s: %w", filepath.Base(path), err)
	}
	if m.fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("durable: sync %s: %w", filepath.Base(path), err)
		}
	}
	return f.Close()
}

// syncDir fsyncs a directory, making the entries created or renamed in it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Append commits a batch of records to the journal as one sealed group
// (one group per pipeline wave; a singleton group per sequential access), so
// the seal is paid once per batch rather than once per record. Records must continue the committed sequence exactly, carry a
// known kind and fit the block size; a batch that does not is rejected
// before anything is written. When a planned crash point falls inside the
// batch, the records before it are sealed as their own group (they were
// "written" before the crash), the group holding the crash record is torn
// mid-group, the manager dies, and ErrCrashed is returned — records before
// the tear are durable and recoverable, the torn group is not. A write or
// sync failure is latched like the crash (see Err); a rejected batch is not.
func (m *Manager) Append(recs []Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	if m.jf == nil {
		return errors.New("durable: append with no open journal (write a checkpoint first)")
	}
	if len(recs) == 0 {
		return nil
	}
	for i, rec := range recs {
		if want := m.nextSeq + uint64(i); rec.Seq != want || rec.Kind >= kindCount || len(rec.Data) > m.blockSize {
			return fmt.Errorf("durable: append seq %d kind %d with %d payload bytes, want seq %d, a known kind and at most %d bytes",
				rec.Seq, rec.Kind, len(rec.Data), want, m.blockSize)
		}
	}
	m.err = m.append(recs)
	return m.err
}

// append writes a checked batch, firing the planned crash point if it falls
// inside.
func (m *Manager) append(recs []Record) error {
	if m.crashAfter >= 0 && m.crashAfter < len(recs) {
		// The crash point falls inside this batch: seal the records before it
		// as a complete (durable) group, then tear the group carrying the
		// crash record and die. Append checked the records, so the torn
		// write's own error is all writeGroup can report, and the crash
		// supersedes it.
		k := m.crashAfter
		if k > 0 {
			if err := m.writeGroup(recs[:k], -1); err != nil {
				return err
			}
			m.nextSeq += uint64(k)
		}
		m.writeGroup(recs[k:], m.tearBytes)
		m.jf.Close()
		m.jf = nil
		return ErrCrashed
	}
	if m.crashAfter > 0 {
		m.crashAfter -= len(recs)
	}
	if err := m.writeGroup(recs, -1); err != nil {
		return err
	}
	m.nextSeq += uint64(len(recs))
	if m.fsync {
		if err := m.jf.Sync(); err != nil {
			return fmt.Errorf("durable: sync journal: %w", err)
		}
	}
	return nil
}

// writeGroup walks recs into one group and seals its records in place, in
// the manager's reused scratch, and writes it whole, or only its first tear
// bytes when tear >= 0. It advances the chain either way.
func (m *Manager) writeGroup(recs []Record, tear int) error {
	c := codec{b: m.recBuf[:0]}
	if c.group(&recs, m.blockSize); c.err != nil {
		return fmt.Errorf("durable: records %d..%d: %w", recs[0].Seq, recs[len(recs)-1].Seq, c.err)
	}
	copy(m.ad[:4], c.b)
	binary.BigEndian.PutUint64(m.nonce[4:], recs[0].Seq)
	c.seal(m.aead, m.nonce[:], m.ad[:], 4, 0)
	copy(m.ad[4:], c.b[len(c.b)-tagSize:])
	m.recBuf = c.b
	full := m.recBuf
	if tear >= 0 {
		full = full[:min(tear, len(full))]
	}
	if _, err := m.jf.Write(full); err != nil {
		return fmt.Errorf("durable: append records %d..%d: %w", recs[0].Seq, recs[len(recs)-1].Seq, err)
	}
	return nil
}

// PlanCrash arms a crash point: after afterRecords more records are
// appended, the next record is written only up to tearBytes bytes and every
// durable operation from then on returns ErrCrashed.
func (m *Manager) PlanCrash(afterRecords, tearBytes int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashAfter = max(afterRecords, 0)
	m.tearBytes = max(tearBytes, 0)
}

// Err returns the manager's first failure: ErrCrashed once a planned crash
// point fires, or the error of a journal write or sync or of any checkpoint
// step. Once set it never changes, and every later Append and
// WriteCheckpoint returns it: after a failed commit the caller's memory may
// hold state the journal does not, and no checkpoint may persist it.
func (m *Manager) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Recover loads the newest valid checkpoint and the valid prefix of its
// journal. Invalid (torn, bit-flipped, wrong-key, older-format) checkpoints are skipped
// in favour of older ones; an absent journal means the crash hit between
// checkpoint publish and journal creation and is not an error. The manager
// does not reopen a journal for appending — the caller writes a fresh
// post-recovery checkpoint, which rotates.
func (m *Manager) Recover() (*Checkpoint, []Record, *RecoveryReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	seqs, err := fileSeqs(m.dir, checkpointName)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("durable: list checkpoints: %w", err)
	}
	if len(seqs) == 0 {
		return nil, nil, nil, fmt.Errorf("durable: no checkpoints in %s", m.dir)
	}
	report := &RecoveryReport{}
	var cp *Checkpoint
	for i := len(seqs) - 1; i >= 0; i-- {
		data, rerr := os.ReadFile(checkpointPath(m.dir, seqs[i]))
		if rerr != nil {
			report.CheckpointsSkipped++
			continue
		}
		cand, derr := decodeCheckpoint(m.key, data)
		if derr != nil {
			report.CheckpointsSkipped++
			continue
		}
		if cand.FP != m.fp {
			return nil, nil, nil, fmt.Errorf("durable: checkpoint %d belongs to a different cluster shape", seqs[i])
		}
		if cand.Seq != seqs[i] {
			report.CheckpointsSkipped++
			continue
		}
		cp = cand
		break
	}
	if cp == nil {
		return nil, nil, nil, errors.New("durable: no valid checkpoint survives")
	}
	report.CheckpointSeq = cp.Seq

	var recs []Record
	jdata, jerr := os.ReadFile(journalPath(m.dir, cp.Seq))
	if jerr == nil {
		hdr, jrecs, torn, derr := decodeJournal(m.key, jdata)
		if derr != nil {
			// An unreadable journal loses nothing that was acknowledged
			// with fsync off; fail closed to the checkpoint alone.
			report.TornTail = true
		} else if hdr.FP != m.fp || hdr.BaseSeq != cp.Seq || hdr.BlockSize != m.blockSize {
			return nil, nil, nil, errors.New("durable: journal does not continue the recovered checkpoint")
		} else {
			recs = jrecs
			report.TornTail = torn
		}
	} else if !errors.Is(jerr, os.ErrNotExist) {
		return nil, nil, nil, fmt.Errorf("durable: read journal: %w", jerr)
	}
	report.RecordsReplayed = len(recs)
	m.ckpt = cp.Seq
	m.nextSeq = cp.Seq + uint64(len(recs)) + 1
	return cp, recs, report, nil
}

// Close releases the journal file handle. The manager is unusable after.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.jf != nil {
		err := m.jf.Close()
		m.jf = nil
		return err
	}
	return nil
}
