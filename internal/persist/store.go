package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/core"
)

// fileExt is the snapshot file extension; quarantined files get
// fileExt+quarantineExt so they are never picked up by lookups again but
// remain on disk for post-mortems.
const (
	fileExt       = ".dmsnap"
	quarantineExt = ".quarantined"
)

// Key is the content address of a preprocessed dictionary: a SHA-256 over
// the preprocessing inputs (pattern set and options) and the snapshot format
// version. Two servers given the same patterns and options derive the same
// key, and a format bump orphans old cache entries instead of misreading
// them.
type Key [sha256.Size]byte

// String returns the hex form used in file names.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeyFor computes the content address of a dictionary built from patterns
// with opts. The hash covers: format version, the resolved seed (0 means 1,
// matching core.Preprocess), NCA variant, anchor strategy, window length,
// and the length-prefixed pattern bytes in order. Pattern order matters —
// pattern ids are positional in match output.
func KeyFor(patterns [][]byte, opts core.Options) Key {
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(Version))
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	word(seed)
	word(uint64(opts.NCA))
	word(uint64(opts.Anchor))
	word(uint64(opts.WindowL))
	word(uint64(len(patterns)))
	for _, p := range patterns {
		word(uint64(len(p)))
		h.Write(p)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// KeyForSnapshot addresses already-encoded snapshot bytes by their own
// content (SHA-256 of the file). Explicit snapshot/restore round trips use
// it: unlike KeyFor, it needs no knowledge of the original preprocessing
// options, and any state the dictionary has absorbed since (a Las Vegas
// reseed) is part of the address.
func KeyForSnapshot(data []byte) Key { return sha256.Sum256(data) }

// Store is a content-addressed snapshot cache rooted at a directory. Writes
// are atomic (temp file + rename) and read back and compared before the
// rename, so a crashed writer never leaves a half-written snapshot under a
// valid name and a silently-corrupting disk is caught while the in-memory
// dictionary is still available to retry or fall back from. Reads that fail
// validation quarantine the file so one corrupt entry cannot wedge every
// future boot; a quarantine that itself fails (rename error) is logged and
// counted, never swallowed.
type Store struct {
	dir  string
	logf func(format string, args ...any) // never nil; defaults to a no-op

	// putLocks serializes writers of the same key (striped by the key's
	// first byte). Same-key writes are legitimate — the dense upgrade rewrites
	// a dictionary's KeyFor entry with a DENSE section added — and without
	// serialization two interleaved write→verify→rename sequences can
	// publish the older bytes last. With the stripe held, whichever write
	// completes second is the state the file ends in, whole.
	putLocks [64]sync.Mutex

	quarantined     atomic.Int64 // files renamed aside after failed validation
	quarantineFails atomic.Int64 // quarantine renames that themselves failed
}

// Open creates the directory if needed and returns the store.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("persist: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: open store: %w", err)
	}
	return &Store{dir: dir, logf: func(string, ...any) {}}, nil
}

// SetLogf installs a printf-style logger for store-internal events that
// have no error-return path to the caller (quarantines and quarantine
// failures). nil restores the no-op default.
func (s *Store) SetLogf(logf func(format string, args ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s.logf = logf
}

// Quarantined returns how many snapshot files this store has renamed aside
// after failed validation.
func (s *Store) Quarantined() int64 { return s.quarantined.Load() }

// QuarantineFails returns how many quarantine renames failed — each one is
// a corrupt file still sitting under its valid name, worth an operator's
// attention (the next GetBundle will re-detect and retry the quarantine).
func (s *Store) QuarantineFails() int64 { return s.quarantineFails.Load() }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Path returns the file path a key maps to.
func (s *Store) Path(k Key) string { return filepath.Join(s.dir, k.String()+fileExt) }

// Has reports whether a snapshot for k is present on disk.
func (s *Store) Has(k Key) bool {
	_, err := os.Stat(s.Path(k))
	return err == nil
}

// PutBytes writes pre-encoded snapshot bytes under a key atomically, after
// the checks every read path makes — framing, every section CRC, header and
// patterns — so the store never persists bytes a reader would reject
// unread. It restores no DENSE payload: callers
// hand it bytes they encoded themselves or already opened.
func (s *Store) PutBytes(k Key, data []byte) (int, error) {
	if _, err := open(data); err != nil {
		return 0, err
	}
	unlock := s.lockKey(k)
	defer unlock()
	if err := s.writeAtomic(s.Path(k), data); err != nil {
		return 0, err
	}
	return len(data), nil
}

// lockKey takes the write stripe for k and returns its unlock.
func (s *Store) lockKey(k Key) func() {
	mu := &s.putLocks[int(k[0])%len(s.putLocks)]
	mu.Lock()
	return mu.Unlock
}

// writeAtomic writes data to a temp file, fsyncs, reads the file back and
// compares it byte for byte with data, and only then renames it into place.
// Every caller has validated or encoded data itself, so equal bytes are
// valid bytes and the read-back decodes nothing. It turns silent write-time
// corruption (a lying disk, a bit flip between buffer and platter) into a
// loud error while the caller still holds the in-memory dictionary, instead
// of a quarantine — or worse, a wrong match — on some future boot.
func (s *Store) writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("persist: put: %w", err)
	}
	defer os.Remove(tmp.Name())
	wdata := data
	if i, mask, ok := chaos.CorruptByte(chaos.PersistWriteFlip, len(data)); ok {
		// Damage only the bytes that hit the disk; the caller's copy stays
		// intact, exactly like real write-path corruption.
		wdata = append([]byte(nil), data...)
		wdata[i] ^= mask
	}
	werr := chaos.Err(chaos.PersistWrite, "write")
	if werr == nil {
		_, werr = tmp.Write(wdata)
	} else {
		// Short write: commit a prefix before failing, like a full disk.
		_, _ = tmp.Write(wdata[:len(wdata)/2])
	}
	if werr != nil {
		tmp.Close()
		return fmt.Errorf("persist: put: %w", werr)
	}
	serr := chaos.Err(chaos.PersistSync, "fsync")
	if serr == nil {
		serr = tmp.Sync()
	}
	if serr != nil {
		tmp.Close()
		return fmt.Errorf("persist: put: %w", serr)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: put: %w", err)
	}
	if err := s.verifyWritten(tmp.Name(), data); err != nil {
		return err
	}
	rerr := chaos.Err(chaos.PersistRename, "rename")
	if rerr == nil {
		rerr = os.Rename(tmp.Name(), path)
	}
	if rerr != nil {
		return fmt.Errorf("persist: put: %w", rerr)
	}
	return nil
}

// verifyWritten is the post-write read-back check of writeAtomic.
func (s *Store) verifyWritten(tmpPath string, want []byte) error {
	got, err := os.ReadFile(tmpPath)
	if err != nil {
		return fmt.Errorf("persist: put read-back: %w", err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("persist: put read-back: %w: file differs from written bytes", ErrCorrupt)
	}
	return nil
}

// quarantine renames a failed-validation file aside. The rename is
// best-effort in the sense that its failure must not mask the decode error
// the caller dispatches on — but it is never silent: both outcomes are
// logged and counted, and QuarantineFails exposes the failure to /metrics.
func (s *Store) quarantine(path string, cause error) {
	rerr := chaos.Err(chaos.PersistQuarantine, "rename")
	if rerr == nil {
		rerr = os.Rename(path, path+quarantineExt)
	}
	if rerr != nil {
		s.quarantineFails.Add(1)
		s.logf("persist: quarantine of %s FAILED (%v); corrupt file still in place (cause: %v)", path, rerr, cause)
		return
	}
	s.quarantined.Add(1)
	s.logf("persist: quarantined %s: %v", path, cause)
}

// Keys lists the keys of all well-named snapshot files currently in the
// store (quarantined files are excluded). Contents are not validated.
func (s *Store) Keys() ([]Key, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("persist: list: %w", err)
	}
	var keys []Key
	for _, e := range entries {
		if k, ok := keyOf(e.Name()); ok && !e.IsDir() {
			keys = append(keys, k)
		}
	}
	return keys, nil
}

// keyOf returns the key a snapshot file name spells, and false for any
// other name.
func keyOf(name string) (Key, bool) {
	var k Key
	if filepath.Ext(name) != fileExt {
		return k, false
	}
	raw, err := hex.DecodeString(name[:len(name)-len(fileExt)])
	if err != nil || len(raw) != sha256.Size {
		return k, false
	}
	copy(k[:], raw)
	return k, true
}

// SweepReport summarizes a startup sweep of the store.
type SweepReport struct {
	Valid           int // snapshots that decoded cleanly
	Quarantined     int // snapshots quarantined by this sweep
	QuarantineFails int // sweep quarantines that failed to rename
	PreQuarantined  int // *.quarantined files left by earlier runs
}

// Sweep re-validates every snapshot in the store: each well-named file is
// read and given the checks every read path makes — framing, every section
// CRC, header and patterns, but no DENSE restore — corrupt
// ones are quarantined (and counted), and leftover quarantine files from
// earlier runs are tallied. Servers run it at startup so a boot reports the
// store's health up front instead of discovering rot lazily, one failed
// GetBundle at a time.
//
// use, when non-nil, is handed each file that passed, named by its key, with
// the bytes just read: a server's warm start opens its bundles from them
// instead of reading every file a second time. An error from use — a DENSE
// section that does not restore, say — quarantines the file like any other
// failed check. use must not keep data.
func (s *Store) Sweep(use func(k Key, data []byte) error) (SweepReport, error) {
	var rep SweepReport
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return rep, fmt.Errorf("persist: sweep: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(name, quarantineExt) {
			rep.PreQuarantined++
			continue
		}
		if filepath.Ext(name) != fileExt {
			continue
		}
		path := filepath.Join(s.dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			continue // raced with a concurrent writer/remover; not our problem
		}
		before := s.quarantineFails.Load()
		_, err = open(data)
		if k, named := keyOf(name); err == nil && named && use != nil {
			err = use(k, data)
		}
		if err != nil {
			s.quarantine(path, err)
			if s.quarantineFails.Load() > before {
				rep.QuarantineFails++
			} else {
				rep.Quarantined++
			}
			continue
		}
		rep.Valid++
	}
	return rep, nil
}
