// Package store is the content-addressed store of completed simulation
// Results. The stfm-server's result cache and the alone-run baselines
// behind every slowdown denominator (S = T_shared / T_alone, Section
// 6.2) are both a Store: a memory map, an optional spill directory
// shared across processes, and per-key singleflight for concurrent
// computes. Disk failures degrade to misses; a Store is an
// accelerator, never a correctness dependency.
//
// # Keys
//
// Key(cfg, workload) is the content address of one run:
//
//	key = hex(sha256( cfg.Fingerprint() + "/%q" per benchmark, in core order ))
//
// Trace generation is deterministic given (profile, geometry, core
// index, seed), so equal keys imply bit-identical Results. An alone run
// is the one-benchmark workload of its alone config, so a server job and
// a batch Runner that agree on the configuration agree on the key and
// share one spill file.
//
// # Envelope
//
// A Result spilled to a directory is written as <key>.json:
//
//	{"v":2,"key":"<key>","sum":"<hex sha256 of the result bytes>","result":{…}}
//
// Decoding checks the version, that the envelope names the key it was
// read under, and the checksum of the raw result bytes. An entry that
// fails any check (truncated, bit-flipped, an older version, copied to
// another key's name) is quarantined as <key>.json.corrupt and reads
// as a miss; the next Put rewrites it. Only Key outputs, 64 lowercase
// hex digits, are ever joined into a path: any other key misses on
// disk and fails a spill, so no key can name a file outside the
// directory.
package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"stfm/internal/sim"
)

// Key derives the content address of one (Config, workload) run: the
// SHA-256 of the configuration's canonical fingerprint
// (sim.Config.Fingerprint, covering every result-determining field
// including the trace Seed) followed by each benchmark name, quoted,
// in core order.
func Key(cfg sim.Config, workload []string) string {
	h := sha256.New()
	io.WriteString(h, cfg.Fingerprint())
	for _, name := range workload {
		fmt.Fprintf(h, "/%q", name)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Store maps keys to completed Results. The zero value is an empty
// memory-only store; Open adds a spill directory. Callers must not
// mutate a Result they get from or put into a Store.
type Store struct {
	// Fault, when non-nil, sees every spill and load: op is "put" with
	// the encoded entry about to be written, or "get" with the bytes
	// just read. It returns the bytes to go on with, or an error that
	// fails the operation (a load error reads as a miss). It is the
	// fault-injection hook of the service's chaos harness; set it
	// before the store is shared.
	Fault func(op string, data []byte) ([]byte, error)

	dir string

	mu          sync.Mutex
	mem         map[string]*sim.Result
	inflight    map[string]chan struct{}
	hits        int64
	misses      int64
	quarantined int64
}

// Open returns a store that spills to dir, creating the directory. An
// empty dir gives a memory-only store.
func Open(dir string) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// Get returns the Result stored under key, from memory or a verified
// spill. It neither computes nor waits for an in-flight Do.
func (s *Store) Get(key string) (*sim.Result, bool) {
	s.mu.Lock()
	res, ok := s.mem[key]
	s.mu.Unlock()
	if !ok {
		res, ok = s.load(key)
	}
	s.mu.Lock()
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
	return res, ok
}

// Put stores res under key and spills it when the store has a
// directory. The memory entry always lands; the spill's error is
// returned for logging.
func (s *Store) Put(key string, res *sim.Result) error {
	s.mu.Lock()
	s.remember(key, res)
	s.mu.Unlock()
	return s.spill(key, res)
}

// Do returns the Result for key, running compute at most once per
// store: a memory hit or verified spill is returned directly; otherwise
// the first caller computes while concurrent callers for the same key
// wait and share its Result. A failed compute returns its error to the
// caller that ran it, and each waiter retries (one becomes the next
// computer), so a transient failure never poisons the key. Waiting is
// bounded by ctx.
func (s *Store) Do(ctx context.Context, key string, compute func() (*sim.Result, error)) (*sim.Result, error) {
	for {
		s.mu.Lock()
		if res, ok := s.mem[key]; ok {
			s.hits++
			s.mu.Unlock()
			return res, nil
		}
		if ch, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			select {
			case <-ch:
				continue // the computer stored a Result or failed; look again
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		ch := make(chan struct{})
		if s.inflight == nil {
			s.inflight = make(map[string]chan struct{})
		}
		s.inflight[key] = ch
		s.mu.Unlock()

		// The caller holding the in-flight slot reads the spill, then
		// computes; waiters find the Result in memory either way.
		res, loaded := s.load(key)
		var err error
		if !loaded {
			s.mu.Lock()
			s.misses++
			s.mu.Unlock()
			res, err = compute()
		}
		s.mu.Lock()
		delete(s.inflight, key)
		close(ch)
		if loaded {
			s.hits++
		} else if err == nil {
			s.remember(key, res)
		}
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
		if !loaded {
			// A failed spill only costs the next process a recompute.
			s.spill(key, res)
		}
		return res, nil
	}
}

// Stats are a store's counters.
type Stats struct {
	// Entries counts Results held in memory (spills load lazily).
	Entries int `json:"entries"`
	// Hits counts lookups served from memory or a verified spill.
	Hits int64 `json:"hits"`
	// Misses counts computes started (Do) and absent keys (Get).
	Misses int64 `json:"misses"`
	// Inflight is the number of keys Do is loading or computing now.
	Inflight int `json:"inflight"`
	// Quarantined counts spills rejected on load and renamed to
	// .corrupt.
	Quarantined int64 `json:"quarantined"`
}

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:     len(s.mem),
		Hits:        s.hits,
		Misses:      s.misses,
		Inflight:    len(s.inflight),
		Quarantined: s.quarantined,
	}
}

// remember adds a memory entry; callers hold s.mu.
func (s *Store) remember(key string, res *sim.Result) {
	if s.mem == nil {
		s.mem = make(map[string]*sim.Result)
	}
	s.mem[key] = res
}

// load reads and verifies key's spill and remembers its Result; false
// when there is none to read or it is rejected, in which case it is
// quarantined. It runs without s.mu, since Fault is caller code.
func (s *Store) load(key string) (*sim.Result, bool) {
	path, ok := s.path(key)
	if !ok {
		return nil, false
	}
	data, err := os.ReadFile(path)
	if err == nil && s.Fault != nil {
		data, err = s.Fault("get", data)
	}
	if err != nil {
		return nil, false
	}
	res, err := decode(key, data)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if Quarantine(path) == nil {
			s.quarantined++
		}
		return nil, false
	}
	s.remember(key, res)
	return res, true
}

// spill writes key's envelope when the store has a directory.
func (s *Store) spill(key string, res *sim.Result) error {
	if s.dir == "" {
		return nil
	}
	path, ok := s.path(key)
	if !ok {
		return fmt.Errorf("store: spill %q: not a content address", key)
	}
	data, err := encode(key, res)
	if err != nil {
		return fmt.Errorf("store: spill %s: %w", key, err)
	}
	if s.Fault != nil {
		if data, err = s.Fault("put", data); err != nil {
			return fmt.Errorf("store: spill %s: %w", key, err)
		}
	}
	if err := WriteFile(path, data); err != nil {
		return fmt.Errorf("store: spill %s: %w", key, err)
	}
	return nil
}

// path maps a key to its spill file; false when the store is
// memory-only or the key is not a Key output.
func (s *Store) path(key string) (string, bool) {
	if s.dir == "" || !isKey(key) {
		return "", false
	}
	return filepath.Join(s.dir, key+".json"), true
}

// isKey reports whether key has Key's form: 64 lowercase hex digits.
func isKey(key string) bool {
	if len(key) != 2*sha256.Size {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// envelopeVersion is the spill format version; entries of any other
// version read as misses.
const envelopeVersion = 2

// envelope is the spill format: the Result JSON, the SHA-256 of exactly
// those bytes, and the key the entry was written under.
type envelope struct {
	V      int             `json:"v"`
	Key    string          `json:"key"`
	Sum    string          `json:"sum"`
	Result json.RawMessage `json:"result"`
}

// encode wraps res in an envelope bound to key.
func encode(key string, res *sim.Result) ([]byte, error) {
	raw, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(raw)
	return json.Marshal(envelope{V: envelopeVersion, Key: key, Sum: hex.EncodeToString(sum[:]), Result: raw})
}

// decode verifies an envelope read under key and unwraps its Result.
func decode(key string, data []byte) (*sim.Result, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("store: corrupt entry %s: %w", key, err)
	}
	if env.V != envelopeVersion {
		return nil, fmt.Errorf("store: corrupt entry %s: unsupported envelope version %d", key, env.V)
	}
	if env.Key != key {
		return nil, fmt.Errorf("store: corrupt entry %s: written under key %q", key, env.Key)
	}
	want, err := hex.DecodeString(env.Sum)
	sum := sha256.Sum256(env.Result)
	if err != nil || !bytes.Equal(sum[:], want) {
		return nil, fmt.Errorf("store: corrupt entry %s: checksum mismatch", key)
	}
	var res sim.Result
	if err := json.Unmarshal(env.Result, &res); err != nil {
		return nil, fmt.Errorf("store: corrupt entry %s: %w", key, err)
	}
	return &res, nil
}

// WriteFile persists data at path through a temp file in the same
// directory, fsync and rename, so path never holds a torn write: a
// crash leaves the old contents or the new ones.
func WriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Quarantine renames a file that failed verification to
// <path>.corrupt, replacing any earlier quarantine, so it is kept for
// inspection and never read again. A missing file is not an error.
func Quarantine(path string) error {
	if err := os.Rename(path, path+".corrupt"); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: quarantine: %w", err)
	}
	return nil
}
