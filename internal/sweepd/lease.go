package sweepd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Lease protocol
//
// A shard's lease is a sequence of generation-numbered JSON files,
// "shard-0003.g000002.json"; the highest generation present is the
// current lease. Acquiring works by *creating the next generation*
// exclusively: the contender writes a temp file and hard-links it to the
// generation's name — link(2) is atomic and fails if the name exists, so
// however many workers contend for an expired lease, exactly one wins
// each generation and the losers see fs.ErrExist. Content appears
// atomically with the name (the temp file is fully written first), so a
// lease file can never be observed half-written.
//
// The owner heartbeats by rewriting its own generation file (temp +
// rename) with a pushed-out expiry, after checking it is still the
// highest generation — if a contender has already claimed g+1 (the
// owner's clock stalled past its TTL), the heartbeat reports
// ErrSuperseded and the old owner must abandon the shard. The window
// between an owner's last heartbeat check and a steal can let both
// measure the same in-flight cell; that is safe by construction — cells
// are pure functions of their identity, duplicates land in different
// shard files, and merge-on-read resolves them with results.FileStore's
// deterministic duplicate rule. What the protocol *must* guarantee is only that
// each generation has a unique owner, so no two processes ever append to
// the same shard file.
//
// Nothing here reads file mtimes or relies on clock agreement between
// workers beyond the TTL granularity: expiry compares the wall-clock
// instant embedded in the lease against the reader's own clock, so TTLs
// should comfortably exceed worst-case clock skew between fleet members
// (seconds, not milliseconds, for multi-host sweeps).

// ErrHeld reports that a shard's lease is currently owned (or was won by
// another contender in the same race). Callers move on to other shards
// and retry later.
var ErrHeld = errors.New("sweepd: shard lease held")

// ErrSuperseded reports that a later lease generation exists: the
// holder expired and another worker took over. The old owner must stop
// working the shard.
var ErrSuperseded = errors.New("sweepd: lease superseded")

// leaseRecord is the lease file payload.
type leaseRecord struct {
	V               int    `json:"v"`
	Shard           int    `json:"shard"`
	Gen             uint64 `json:"gen"`
	Owner           string `json:"owner"`
	ExpiresUnixNano int64  `json:"expires_unix_nano"`
}

const leaseV = 1

// Lease is an acquired shard lease. The owner must Heartbeat it more
// often than its TTL (TTL/3 is the conventional cadence) and abandon the
// shard on ErrSuperseded.
type Lease struct {
	// Shard is the leased shard index; Gen the won generation; Owner the
	// acquiring owner id.
	Shard int
	Gen   uint64
	Owner string

	dir string // the leases directory
}

// leaseFileName returns the file name for one (shard, generation).
func leaseFileName(shard int, gen uint64) string {
	return fmt.Sprintf("shard-%04d.g%06d.json", shard, gen)
}

// scanLease returns the highest-generation lease record for shard, or
// ok=false when the shard has never been leased.
func scanLease(dir string, shard int) (rec leaseRecord, ok bool, err error) {
	prefix := fmt.Sprintf("shard-%04d.g", shard)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return rec, false, fmt.Errorf("sweepd: scan leases: %w", err)
	}
	var names []string
	for _, e := range ents {
		if n := e.Name(); strings.HasPrefix(n, prefix) && strings.HasSuffix(n, ".json") {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return rec, false, nil
	}
	// Generation numbers are zero-padded, so the lexicographically
	// greatest name is the highest generation.
	sort.Strings(names)
	name := names[len(names)-1]
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return rec, false, fmt.Errorf("sweepd: read lease: %w", err)
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		// Lease files appear atomically with full content (link from a
		// written temp file), so a malformed one is corruption, not a
		// race.
		return rec, false, fmt.Errorf("sweepd: corrupt lease %s: %v", name, err)
	}
	if rec.V != leaseV {
		return rec, false, fmt.Errorf("sweepd: lease %s version v%d, want v%d", name, rec.V, leaseV)
	}
	return rec, true, nil
}

// writeLeaseTemp writes rec to a unique temp file in dir and returns its
// path.
func writeLeaseTemp(dir string, rec leaseRecord) (string, error) {
	data, err := json.Marshal(rec)
	if err != nil {
		return "", fmt.Errorf("sweepd: marshal lease: %w", err)
	}
	f, err := os.CreateTemp(dir, ".lease-*")
	if err != nil {
		return "", fmt.Errorf("sweepd: lease temp: %w", err)
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		os.Remove(f.Name())
		return "", fmt.Errorf("sweepd: write lease: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return "", fmt.Errorf("sweepd: write lease: %w", err)
	}
	return f.Name(), nil
}

// Acquire attempts to claim shard's lease for owner with the given TTL,
// evaluated at time now. It returns ErrHeld when the lease is live (or
// another contender won the same race); any other error is structural
// (I/O, corruption). On success the caller owns the shard until the
// lease expires and must heartbeat to keep it.
func Acquire(dir string, shard int, owner string, ttl time.Duration, now time.Time) (*Lease, error) {
	cur, ok, err := scanLease(dir, shard)
	if err != nil {
		return nil, err
	}
	next := uint64(1)
	if ok {
		if cur.ExpiresUnixNano > now.UnixNano() {
			return nil, fmt.Errorf("shard %d held by %s (gen %d): %w", shard, cur.Owner, cur.Gen, ErrHeld)
		}
		next = cur.Gen + 1
	}
	rec := leaseRecord{
		V: leaseV, Shard: shard, Gen: next, Owner: owner,
		ExpiresUnixNano: now.Add(ttl).UnixNano(),
	}
	tmp, err := writeLeaseTemp(dir, rec)
	if err != nil {
		return nil, err
	}
	linkErr := os.Link(tmp, filepath.Join(dir, leaseFileName(shard, next)))
	os.Remove(tmp)
	if linkErr != nil {
		if errors.Is(linkErr, fs.ErrExist) {
			// Another contender created this generation first.
			return nil, fmt.Errorf("shard %d generation %d lost to a concurrent claim: %w", shard, next, ErrHeld)
		}
		return nil, fmt.Errorf("sweepd: link lease: %w", linkErr)
	}
	return &Lease{Shard: shard, Gen: next, Owner: owner, dir: dir}, nil
}

// Heartbeat pushes the lease expiry to now+ttl. It first re-scans the
// shard: if a higher generation exists — or the lease record is no
// longer this owner's — the lease was stolen after expiry and Heartbeat
// returns ErrSuperseded; the owner must stop working the shard (its
// already-appended records stay valid).
func (l *Lease) Heartbeat(ttl time.Duration, now time.Time) error {
	cur, ok, err := scanLease(l.dir, l.Shard)
	if err != nil {
		return err
	}
	if !ok || cur.Gen != l.Gen || cur.Owner != l.Owner {
		return fmt.Errorf("shard %d gen %d (owner %s): current is gen %d owner %s: %w",
			l.Shard, l.Gen, l.Owner, cur.Gen, cur.Owner, ErrSuperseded)
	}
	rec := leaseRecord{
		V: leaseV, Shard: l.Shard, Gen: l.Gen, Owner: l.Owner,
		ExpiresUnixNano: now.Add(ttl).UnixNano(),
	}
	tmp, err := writeLeaseTemp(l.dir, rec)
	if err != nil {
		return err
	}
	// Rename over our own generation file: atomic, and only the owner
	// ever targets this name (contenders only ever create *new*
	// generations), so no write is ever lost to interleaving.
	if err := os.Rename(tmp, filepath.Join(l.dir, leaseFileName(l.Shard, l.Gen))); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("sweepd: heartbeat: %w", err)
	}
	return nil
}

// doneRecord marks a completed shard.
type doneRecord struct {
	V     int    `json:"v"`
	Shard int    `json:"shard"`
	Gen   uint64 `json:"gen"`
	Owner string `json:"owner"`
}

// doneFileName returns the completion-marker name for a shard.
func doneFileName(shard int) string { return fmt.Sprintf("shard-%04d.json", shard) }

// markDone writes shard's completion marker (atomic; overwriting an
// existing marker is harmless — both writers finished the same work).
func markDone(dir string, shard int, owner string, gen uint64) error {
	data, err := json.Marshal(doneRecord{V: leaseV, Shard: shard, Gen: gen, Owner: owner})
	if err != nil {
		return fmt.Errorf("sweepd: marshal done marker: %w", err)
	}
	f, err := os.CreateTemp(dir, ".done-*")
	if err != nil {
		return fmt.Errorf("sweepd: done temp: %w", err)
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		os.Remove(f.Name())
		return fmt.Errorf("sweepd: write done marker: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("sweepd: write done marker: %w", err)
	}
	if err := os.Rename(f.Name(), filepath.Join(dir, doneFileName(shard))); err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("sweepd: write done marker: %w", err)
	}
	return nil
}

// isDone reports whether shard has a completion marker.
func isDone(dir string, shard int) (bool, error) {
	_, err := os.Stat(filepath.Join(dir, doneFileName(shard)))
	if err == nil {
		return true, nil
	}
	if os.IsNotExist(err) {
		return false, nil
	}
	return false, fmt.Errorf("sweepd: stat done marker: %w", err)
}

// countDone returns how many of n shards are done-marked.
func countDone(dir string, n int) (int, error) {
	count := 0
	for s := 0; s < n; s++ {
		done, err := isDone(dir, s)
		if err != nil {
			return 0, err
		}
		if done {
			count++
		}
	}
	return count, nil
}

// ownerID derives a fleet-unique owner id for this process.
func ownerID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "unknown"
	}
	return host + "-" + strconv.Itoa(os.Getpid())
}
