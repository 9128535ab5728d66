// Package cluster implements a distributed store tier over plain kv.Store
// backends: a kv.Store client that shards keys across N nodes with a
// consistent-hash ring (virtual nodes), replicates every key to a
// preference list of nodes with configurable N/R/W quorums, repairs
// divergent replicas on read, buffers hinted handoff for nodes that are
// down, and rebalances live when nodes join or leave.
//
// This is the "millions of users" step of the roadmap: the single-node
// substrates (in-memory, miniredis, cloudsim, minisql) stay untouched and
// become cluster nodes; everything the repository already provides — the
// batch interfaces, the kv.Stack middleware model, the chaos conformance
// suite — composes over the cluster unchanged. The design follows the
// partitioned-with-replication model of UStore and Redis/Valkey cluster
// mode (PAPERS.md), scaled down to a client-side coordinator: this package
// is the paper's "enhanced data store client" grown a cluster tier, not a
// server-side consensus system.
//
// # Replication and consistency
//
// Every value is stored on nodes as a record carrying a coordinator-issued
// monotonic version and a tombstone flag (deletes replicate as tombstones,
// so a stale replica cannot resurrect a deleted key). A write succeeds when
// at least W of the key's N replicas acknowledge; a read succeeds when at
// least R replicas answer, and returns the record with the highest version.
// With R+W > N (the default: N=3, R=W=2) read and write quorums intersect,
// so a successful read always observes the newest successful write.
//
// Reads additionally enforce *monotonic reads* before answering: the
// winning record must be present on at least N-R+1 replicas (every future
// R-quorum then intersects it), and the read path synchronously
// read-repairs stale replicas until that holds — otherwise the read fails
// as quorum-ambiguous rather than return a value that could later vanish.
// This is what lets the chaos suite check the cluster against a
// linearizability possibility model instead of hand-waving "eventual".
//
// Writes that cannot reach a replica leave a hint with the coordinator;
// hints drain back to the node once it is reachable again (opportunistically
// after any successful write that touches it, or explicitly via FlushHints).
//
// All writes to one key are serialized through a striped coordinator lock,
// which is what makes CompareAndPut sound: this package assumes a single
// coordinator process per cluster (the paper's client-side setting). Two
// Cluster clients over the same nodes would race versions.
package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"edsc/kv"
)

// ErrNoQuorum reports an operation that could not reach its read or write
// quorum. It surfaces wrapped in a *kv.StoreError carrying the store name,
// op, and key; write-path quorum failures additionally wrap kv.ErrAmbiguous,
// because the replicas that did answer may have applied the write.
var ErrNoQuorum = errors.New("cluster: quorum unreachable")

// Node pairs a member ID with its backend store. The ID, not the store
// name, determines ring placement, so a node can be replaced by a new
// backend under the same ID without moving keys.
type Node struct {
	ID    string
	Store kv.Store
}

// Options tune the cluster. The zero value replicates to min(3, nodes)
// replicas with majority quorums and 64 virtual nodes.
type Options struct {
	// Replication is N, the number of replicas per key (default
	// min(3, member count), capped at the member count).
	Replication int
	// ReadQuorum is R, the replica answers a read needs (default N/2+1).
	ReadQuorum int
	// WriteQuorum is W, the replica acks a write needs (default N/2+1).
	WriteQuorum int
	// Vnodes is the virtual-node count per member (default 64).
	Vnodes int
	// Seed perturbs ring placement deterministically.
	Seed int64
	// MaxHints bounds the hinted-handoff buffer per node (default 4096);
	// beyond it the oldest hints are dropped and counted in Stats.
	MaxHints int
	// NodeTimeout bounds each per-replica operation (default 2s), so one
	// hung node cannot stall a quorum that is otherwise satisfied.
	NodeTimeout time.Duration
}

func (o Options) withDefaults(members int) Options {
	if o.Replication <= 0 {
		o.Replication = 3
	}
	if o.Replication > members {
		o.Replication = members
	}
	if o.ReadQuorum <= 0 {
		o.ReadQuorum = o.Replication/2 + 1
	}
	if o.WriteQuorum <= 0 {
		o.WriteQuorum = o.Replication/2 + 1
	}
	if o.Vnodes <= 0 {
		o.Vnodes = 64
	}
	if o.MaxHints <= 0 {
		o.MaxHints = 4096
	}
	if o.NodeTimeout <= 0 {
		o.NodeTimeout = 2 * time.Second
	}
	return o
}

// Stats are cumulative counters of cluster-level events.
type Stats struct {
	Reads          int64 // quorum reads served
	Writes         int64 // quorum writes acknowledged
	ReadRepairs    int64 // stale replicas repaired on the read path
	DegradedWrites int64 // successful writes that missed at least one replica
	HintsQueued    int64 // hinted-handoff records buffered
	HintsReplayed  int64 // hints drained back to recovered nodes
	HintsDropped   int64 // hints lost to the MaxHints bound
	QuorumFailures int64 // operations failed for lack of quorum
	Rebalances     int64 // join/leave rebalance passes completed
	KeysMoved      int64 // records copied during rebalancing
}

// Cluster is the sharded, replicated store client. It implements kv.Store,
// kv.Versioned, kv.CompareAndPut, kv.Batch, and kv.VersionedBatch; the
// expiry and SQL escape hatches do not exist cluster-wide (no single node
// owns a key), so kv.Expiring and kv.SQL are deliberately absent.
type Cluster struct {
	name string
	opts Options
	ver  atomic.Uint64 // cluster-wide version counter (single coordinator)

	mu      sync.RWMutex // guards ring, members, hints, closed
	ring    *Ring
	members map[string]kv.Store
	hints   map[string][]hint // node ID -> pending handoff records
	closed  bool

	locks [keyStripes]sync.Mutex // serialize writes per key stripe

	reads, writes, repairs, degraded atomic.Int64
	hintsQ, hintsR, hintsD, noQuorum atomic.Int64
	rebalances, keysMoved            atomic.Int64
}

const keyStripes = 64

type hint struct {
	key string
	rec record
}

var (
	_ kv.Store          = (*Cluster)(nil)
	_ kv.Versioned      = (*Cluster)(nil)
	_ kv.CompareAndPut  = (*Cluster)(nil)
	_ kv.Batch          = (*Cluster)(nil)
	_ kv.VersionedBatch = (*Cluster)(nil)
)

// New builds a cluster client over nodes. Node IDs must be unique and
// non-empty; at least one node is required, and the quorum parameters must
// satisfy R <= N, W <= N, and R+W > N (quorum intersection — the basis of
// every consistency claim this package makes).
func New(name string, nodes []Node, opts Options) (*Cluster, error) {
	if len(nodes) == 0 {
		return nil, errors.New("cluster: at least one node required")
	}
	opts = opts.withDefaults(len(nodes))
	n, r, w := opts.Replication, opts.ReadQuorum, opts.WriteQuorum
	if r > n || w > n || r+w <= n {
		return nil, fmt.Errorf("cluster: invalid quorum N=%d R=%d W=%d (need R<=N, W<=N, R+W>N)", n, r, w)
	}
	c := &Cluster{
		name:    name,
		opts:    opts,
		ring:    NewRing(opts.Vnodes, opts.Seed),
		members: make(map[string]kv.Store, len(nodes)),
		hints:   make(map[string][]hint),
	}
	for _, nd := range nodes {
		if nd.ID == "" || nd.Store == nil {
			return nil, errors.New("cluster: node needs a non-empty ID and a store")
		}
		if _, dup := c.members[nd.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate node ID %q", nd.ID)
		}
		c.members[nd.ID] = nd.Store
		c.ring.Add(nd.ID)
	}
	return c, nil
}

// Stats returns a snapshot of the cluster counters.
func (c *Cluster) Stats() Stats {
	return Stats{
		Reads:          c.reads.Load(),
		Writes:         c.writes.Load(),
		ReadRepairs:    c.repairs.Load(),
		DegradedWrites: c.degraded.Load(),
		HintsQueued:    c.hintsQ.Load(),
		HintsReplayed:  c.hintsR.Load(),
		HintsDropped:   c.hintsD.Load(),
		QuorumFailures: c.noQuorum.Load(),
		Rebalances:     c.rebalances.Load(),
		KeysMoved:      c.keysMoved.Load(),
	}
}

// Name implements kv.Store.
func (c *Cluster) Name() string { return c.name }

// Options returns the effective configuration — the constructor's input
// with every default resolved (replication factor, quorum sizes, ring
// geometry).
func (c *Cluster) Options() Options { return c.opts }

// --- record encoding -------------------------------------------------------

// Record is the decoded form of what the cluster stores on its nodes: the
// application value plus the replication metadata read repair and hinted
// handoff need. It is exported so tests and tools can inspect node state
// directly (the conformance suite asserts per-node convergence with it).
type Record struct {
	Version   uint64
	Tombstone bool
	Value     []byte
}

type record = Record

const (
	recMagic0  = 0xC7 // arbitrary non-text bytes: a decode failure on raw
	recMagic1  = 0x01 // application data should be loud, not silent
	recHdrSize = 2 + 8 + 1
	flagTomb   = 0x01
)

// Encode renders the record in the node storage format.
func (r Record) Encode() []byte {
	out := make([]byte, recHdrSize+len(r.Value))
	out[0], out[1] = recMagic0, recMagic1
	binary.BigEndian.PutUint64(out[2:], r.Version)
	if r.Tombstone {
		out[10] = flagTomb
	}
	copy(out[recHdrSize:], r.Value)
	return out
}

// DecodeRecord parses a node-stored blob back into a Record. The Value
// aliases b's tail; callers that outlive b must copy.
func DecodeRecord(b []byte) (Record, error) {
	if len(b) < recHdrSize || b[0] != recMagic0 || b[1] != recMagic1 {
		return Record{}, errors.New("cluster: not a cluster record")
	}
	return Record{
		Version:   binary.BigEndian.Uint64(b[2:]),
		Tombstone: b[10]&flagTomb != 0,
		Value:     b[recHdrSize:],
	}, nil
}

func (c *Cluster) nextVersion() uint64 { return c.ver.Add(1) }

// observeVersion raises the counter to at least v, so a coordinator built
// over pre-existing node data cannot issue versions that lose to it.
func (c *Cluster) observeVersion(v uint64) {
	for {
		cur := c.ver.Load()
		if v <= cur || c.ver.CompareAndSwap(cur, v) {
			return
		}
	}
}

func versionString(v uint64) kv.Version { return kv.Version(fmt.Sprintf("c%d", v)) }

// --- membership snapshots and errors ---------------------------------------

type replica struct {
	id    string
	store kv.Store
}

// replicasFor snapshots key's preference list under the membership lock.
func (c *Cluster) replicasFor(key string) ([]replica, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return nil, kv.ErrClosed
	}
	ids := c.ring.LookupN(key, c.opts.Replication)
	out := make([]replica, 0, len(ids))
	for _, id := range ids {
		out = append(out, replica{id: id, store: c.members[id]})
	}
	return out, nil
}

// allMembers snapshots the full membership under the lock.
func (c *Cluster) allMembers() ([]replica, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return nil, kv.ErrClosed
	}
	out := make([]replica, 0, len(c.members))
	for _, id := range c.ring.Nodes() {
		out = append(out, replica{id: id, store: c.members[id]})
	}
	return out, nil
}

// quorumError builds the typed quorum failure: a *kv.StoreError whose cause
// chain carries ErrNoQuorum, the per-node causes (so tests can see injected
// faults through it), and — for writes, which may have partially applied —
// kv.ErrAmbiguous, the marker the resilience layer's idempotency gate keys
// on.
func (c *Cluster) quorumError(op, key string, ambiguous bool, causes []error) error {
	c.noQuorum.Add(1)
	parts := []error{ErrNoQuorum}
	if ambiguous {
		parts = append(parts, kv.ErrAmbiguous)
	}
	// Cap the cause chain; one representative failure per node is plenty.
	if len(causes) > 4 {
		causes = causes[:4]
	}
	parts = append(parts, causes...)
	return &kv.StoreError{Store: c.name, Op: op, Key: key, Err: errors.Join(parts...)}
}

func (c *Cluster) lockFor(key string) *sync.Mutex {
	return &c.locks[mix64(fnv64a(key))%keyStripes]
}

// stripesFor returns the sorted, deduplicated stripe indexes of keys —
// multi-key writes lock ascending so overlapping batches cannot deadlock.
func (c *Cluster) stripesFor(keys []string) []int {
	seen := make(map[int]bool, len(keys))
	out := make([]int, 0, len(keys))
	for _, k := range keys {
		i := int(mix64(fnv64a(k)) % keyStripes)
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

func (c *Cluster) lockStripes(idx []int) {
	for _, i := range idx {
		c.locks[i].Lock()
	}
}

func (c *Cluster) unlockStripes(idx []int) {
	for i := len(idx) - 1; i >= 0; i-- {
		c.locks[idx[i]].Unlock()
	}
}

// nodeCtx bounds one per-replica operation.
func (c *Cluster) nodeCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, c.opts.NodeTimeout)
}

// --- quorum write ----------------------------------------------------------

// writeRecordLocked replicates rec to key's preference list and waits for
// every replica to answer or time out (no fire-and-forget stragglers: a
// write that outlived its key lock could clobber a newer record). Failed
// replicas get hints. Caller holds key's stripe lock. It returns the nodes
// that acked, so opportunistic hint draining can run after the lock drops.
func (c *Cluster) writeRecordLocked(ctx context.Context, op, key string, rec record) ([]replica, error) {
	reps, err := c.replicasFor(key)
	if err != nil {
		return nil, err
	}
	type result struct {
		rep replica
		err error
	}
	results := make([]result, len(reps))
	enc := rec.Encode()
	var wg sync.WaitGroup
	for i, rep := range reps {
		wg.Add(1)
		go func(i int, rep replica) {
			defer wg.Done()
			nctx, cancel := c.nodeCtx(ctx)
			defer cancel()
			results[i] = result{rep: rep, err: rep.store.Put(nctx, key, enc)}
		}(i, rep)
	}
	wg.Wait()

	var acked []replica
	var causes []error
	for _, r := range results {
		if r.err == nil {
			acked = append(acked, r.rep)
		} else {
			causes = append(causes, fmt.Errorf("node %s: %w", r.rep.id, r.err))
			c.addHint(r.rep.id, key, rec)
		}
	}
	if len(acked) < c.opts.WriteQuorum {
		// The acks that did land may have applied the write: ambiguous.
		return acked, c.quorumError(op, key, true, causes)
	}
	if len(acked) < len(reps) {
		c.degraded.Add(1)
	}
	c.writes.Add(1)
	return acked, nil
}

// addHint buffers a handoff record for an unreachable node.
func (c *Cluster) addHint(nodeID, key string, rec record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, member := c.members[nodeID]; !member {
		return
	}
	h := c.hints[nodeID]
	if len(h) >= c.opts.MaxHints {
		h = h[1:]
		c.hintsD.Add(1)
	}
	c.hints[nodeID] = append(h, hint{key: key, rec: rec})
	c.hintsQ.Add(1)
}

// takeHints removes and returns the pending hints for the given nodes.
func (c *Cluster) takeHints(nodes []string) map[string][]hint {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string][]hint)
	for _, id := range nodes {
		if h := c.hints[id]; len(h) > 0 {
			out[id] = h
			delete(c.hints, id)
		}
	}
	return out
}

// drainHints replays pending hints to the given nodes (which just proved
// reachable). Each record installs under its key lock and only if the node
// does not already hold something newer; hints that fail again are re-queued.
// Callers must NOT hold any key stripe lock.
func (c *Cluster) drainHints(ctx context.Context, nodes []replica) {
	ids := make([]string, len(nodes))
	byID := make(map[string]kv.Store, len(nodes))
	for i, n := range nodes {
		ids[i] = n.id
		byID[n.id] = n.store
	}
	pending := c.takeHints(ids)
	for id, hs := range pending {
		store := byID[id]
		for _, h := range hs {
			lock := c.lockFor(h.key)
			lock.Lock()
			err := c.installIfNewer(ctx, store, h.key, h.rec)
			lock.Unlock()
			if err != nil {
				c.addHint(id, h.key, h.rec)
			} else {
				c.hintsR.Add(1)
			}
		}
	}
}

// FlushHints synchronously replays every buffered handoff record whose
// target node is reachable. It returns the number of hints still pending
// (nodes still down re-queue their records).
func (c *Cluster) FlushHints(ctx context.Context) (remaining int, err error) {
	reps, err := c.allMembers()
	if err != nil {
		return 0, err
	}
	c.drainHints(ctx, reps)
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, h := range c.hints {
		remaining += len(h)
	}
	return remaining, nil
}

// PendingHints reports the number of buffered handoff records.
func (c *Cluster) PendingHints() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for _, h := range c.hints {
		n += len(h)
	}
	return n
}

// installIfNewer writes rec to one node unless the node already holds an
// equal-or-newer record. Caller holds key's stripe lock (which is what makes
// the read-then-write below race-free: no newer version can be committed
// while we hold it).
func (c *Cluster) installIfNewer(ctx context.Context, store kv.Store, key string, rec record) error {
	nctx, cancel := c.nodeCtx(ctx)
	defer cancel()
	cur, err := store.Get(nctx, key)
	switch {
	case err == nil:
		if existing, derr := DecodeRecord(cur); derr == nil && existing.Version >= rec.Version {
			return nil
		}
	case kv.IsNotFound(err):
		// Nothing there; install.
	default:
		return err
	}
	return store.Put(nctx, key, rec.Encode())
}

// --- quorum read -----------------------------------------------------------

// readResponse is one replica's answer to a read.
type readResponse struct {
	rep    replica
	rec    record
	exists bool // node had a record (tombstones exist too)
	err    error
}

// fanoutRead asks every replica for key and waits for all of them (each
// bounded by NodeTimeout).
func (c *Cluster) fanoutRead(ctx context.Context, reps []replica, key string) []readResponse {
	out := make([]readResponse, len(reps))
	var wg sync.WaitGroup
	for i, rep := range reps {
		wg.Add(1)
		go func(i int, rep replica) {
			defer wg.Done()
			nctx, cancel := c.nodeCtx(ctx)
			defer cancel()
			b, err := rep.store.Get(nctx, key)
			switch {
			case err == nil:
				rec, derr := DecodeRecord(b)
				if derr != nil {
					out[i] = readResponse{rep: rep, err: fmt.Errorf("node %s key %q: %w", rep.id, key, derr)}
					return
				}
				// Detach from the node's buffer before it can be reused.
				rec.Value = append([]byte(nil), rec.Value...)
				out[i] = readResponse{rep: rep, rec: rec, exists: true}
			case kv.IsNotFound(err):
				out[i] = readResponse{rep: rep}
			default:
				out[i] = readResponse{rep: rep, err: fmt.Errorf("node %s: %w", rep.id, err)}
			}
		}(i, rep)
	}
	wg.Wait()
	return out
}

// resolveRead picks the winner among replica responses and enforces the
// monotonic-read rule, repairing stale replicas as needed. locked reports
// whether the caller already holds key's stripe lock (the CAS path does;
// plain reads do not, and repair takes it itself).
//
// Returns (winner, exists=false) when no replica has a record: the key was
// never written (or fully forgotten), distinct from a tombstoned key, where
// exists=true and winner.Tombstone is set.
func (c *Cluster) resolveRead(ctx context.Context, op, key string, reps []replica, resp []readResponse, locked bool) (record, bool, error) {
	var causes []error
	answered := 0
	winner := record{}
	exists := false
	for _, r := range resp {
		if r.err != nil {
			causes = append(causes, r.err)
			continue
		}
		answered++
		if r.exists && (!exists || r.rec.Version > winner.Version) {
			winner, exists = r.rec, true
		}
	}
	if answered < c.opts.ReadQuorum {
		return record{}, false, c.quorumError(op, key, false, causes)
	}
	if !exists {
		c.reads.Add(1)
		return record{}, false, nil
	}
	c.observeVersion(winner.Version)

	// Monotonic-read durability: the winner must be on enough replicas that
	// any future read quorum intersects one. Count current holders, then
	// repair stale responders (under the key lock) until the bound holds.
	need := len(reps) - c.opts.ReadQuorum + 1
	holders := 0
	for _, r := range resp {
		if r.err == nil && r.exists && r.rec.Version == winner.Version {
			holders++
		}
	}
	if holders < need {
		repaired, err := c.repair(ctx, key, winner, resp, need-holders, locked)
		holders += repaired
		if holders < need {
			if err == nil {
				err = errors.New("cluster: winner not durable on enough replicas")
			}
			return record{}, false, c.quorumError(op, key, true, append(causes, err))
		}
	} else if c.anyStale(resp, winner) {
		// Durability already holds; repair the rest opportunistically.
		_, _ = c.repair(ctx, key, winner, resp, len(reps), locked)
	}
	c.reads.Add(1)
	return winner, true, nil
}

func (c *Cluster) anyStale(resp []readResponse, winner record) bool {
	for _, r := range resp {
		if r.err == nil && (!r.exists || r.rec.Version < winner.Version) {
			return true
		}
	}
	return false
}

// repair installs winner on responders that lack it, stopping once have
// replicas have been fixed (pass len(reps) to repair everything reachable).
// It reports how many replicas now newly hold the winner.
//
// Responders that no longer replicate key are skipped: the read may have
// been routed before a Join or Leave, and rebalanceKey — which holds the
// same stripe lock — may already have drained key from them. Re-checking the
// preference list under the lock keeps a late repair from leaving a stray
// record on a departed node or a former holder.
func (c *Cluster) repair(ctx context.Context, key string, winner record, resp []readResponse, have int, locked bool) (int, error) {
	if !locked {
		lock := c.lockFor(key)
		lock.Lock()
		defer lock.Unlock()
	}
	reps, err := c.replicasFor(key)
	if err != nil {
		return 0, err
	}
	owner := make(map[string]bool, len(reps))
	for _, rep := range reps {
		owner[rep.id] = true
	}
	repaired := 0
	var firstErr error
	for _, r := range resp {
		if repaired >= have {
			break
		}
		if r.err != nil || (r.exists && r.rec.Version >= winner.Version) || !owner[r.rep.id] {
			continue
		}
		if err := c.installIfNewer(ctx, r.rep.store, key, winner); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		repaired++
		c.repairs.Add(1)
	}
	return repaired, firstErr
}

// readRecord is the full unlocked quorum read.
func (c *Cluster) readRecord(ctx context.Context, op, key string) (record, bool, error) {
	reps, err := c.replicasFor(key)
	if err != nil {
		return record{}, false, err
	}
	resp := c.fanoutRead(ctx, reps, key)
	return c.resolveRead(ctx, op, key, reps, resp, false)
}

// readRecordLocked is readRecord for callers already holding key's stripe
// lock (the CAS and Delete paths).
func (c *Cluster) readRecordLocked(ctx context.Context, op, key string) (record, bool, error) {
	reps, err := c.replicasFor(key)
	if err != nil {
		return record{}, false, err
	}
	resp := c.fanoutRead(ctx, reps, key)
	return c.resolveRead(ctx, op, key, reps, resp, true)
}

// --- kv.Store --------------------------------------------------------------

// Get implements kv.Store.
func (c *Cluster) Get(ctx context.Context, key string) ([]byte, error) {
	v, _, err := c.GetVersioned(ctx, key)
	return v, err
}

// GetVersioned implements kv.Versioned.
func (c *Cluster) GetVersioned(ctx context.Context, key string) ([]byte, kv.Version, error) {
	if err := ctx.Err(); err != nil {
		return nil, kv.NoVersion, err
	}
	if err := kv.CheckKey(key); err != nil {
		return nil, kv.NoVersion, err
	}
	rec, exists, err := c.readRecord(ctx, "get", key)
	if err != nil {
		return nil, kv.NoVersion, err
	}
	if !exists || rec.Tombstone {
		return nil, kv.NoVersion, kv.ErrNotFound
	}
	return rec.Value, versionString(rec.Version), nil
}

// GetIfModified implements kv.Versioned.
func (c *Cluster) GetIfModified(ctx context.Context, key string, since kv.Version) ([]byte, kv.Version, bool, error) {
	v, ver, err := c.GetVersioned(ctx, key)
	if err != nil {
		return nil, kv.NoVersion, false, err
	}
	if since != kv.NoVersion && ver == since {
		return nil, since, false, nil
	}
	return v, ver, true, nil
}

// Put implements kv.Store.
func (c *Cluster) Put(ctx context.Context, key string, value []byte) error {
	_, err := c.PutVersioned(ctx, key, value)
	return err
}

// PutVersioned implements kv.Versioned.
func (c *Cluster) PutVersioned(ctx context.Context, key string, value []byte) (kv.Version, error) {
	if err := ctx.Err(); err != nil {
		return kv.NoVersion, err
	}
	if err := kv.CheckKey(key); err != nil {
		return kv.NoVersion, err
	}
	rec := record{Version: c.nextVersion(), Value: append([]byte(nil), value...)}
	lock := c.lockFor(key)
	lock.Lock()
	acked, err := c.writeRecordLocked(ctx, "put", key, rec)
	lock.Unlock()
	if err != nil {
		return kv.NoVersion, err
	}
	c.drainHints(ctx, acked)
	return versionString(rec.Version), nil
}

// PutIfVersion implements kv.CompareAndPut. The coordinator's key lock
// serializes it against every other write to the key, so the quorum
// read-check-write below is atomic from this client's point of view.
func (c *Cluster) PutIfVersion(ctx context.Context, key string, value []byte, since kv.Version) (kv.Version, error) {
	if err := ctx.Err(); err != nil {
		return kv.NoVersion, err
	}
	if err := kv.CheckKey(key); err != nil {
		return kv.NoVersion, err
	}
	lock := c.lockFor(key)
	lock.Lock()
	cur, exists, err := c.readRecordLocked(ctx, "cas", key)
	if err != nil {
		lock.Unlock()
		return kv.NoVersion, err
	}
	live := exists && !cur.Tombstone
	if since == kv.NoVersion {
		if live {
			lock.Unlock()
			return kv.NoVersion, kv.ErrVersionMismatch
		}
	} else if !live || versionString(cur.Version) != since {
		lock.Unlock()
		return kv.NoVersion, kv.ErrVersionMismatch
	}
	rec := record{Version: c.nextVersion(), Value: append([]byte(nil), value...)}
	acked, err := c.writeRecordLocked(ctx, "cas", key, rec)
	lock.Unlock()
	if err != nil {
		return kv.NoVersion, err
	}
	c.drainHints(ctx, acked)
	return versionString(rec.Version), nil
}

// Delete implements kv.Store. Deletes replicate as tombstones: removing the
// record outright would let a replica that missed the delete win a later
// read quorum and resurrect the key.
func (c *Cluster) Delete(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := kv.CheckKey(key); err != nil {
		return err
	}
	lock := c.lockFor(key)
	lock.Lock()
	cur, exists, err := c.readRecordLocked(ctx, "delete", key)
	if err != nil {
		lock.Unlock()
		return err
	}
	if !exists || cur.Tombstone {
		lock.Unlock()
		return kv.ErrNotFound
	}
	rec := record{Version: c.nextVersion(), Tombstone: true}
	acked, err := c.writeRecordLocked(ctx, "delete", key, rec)
	lock.Unlock()
	if err != nil {
		return err
	}
	c.drainHints(ctx, acked)
	return nil
}

// Contains implements kv.Store.
func (c *Cluster) Contains(ctx context.Context, key string) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if err := kv.CheckKey(key); err != nil {
		return false, err
	}
	rec, exists, err := c.readRecord(ctx, "contains", key)
	if err != nil {
		return false, err
	}
	return exists && !rec.Tombstone, nil
}

// Keys implements kv.Store: the union of live (non-tombstoned) keys across
// the cluster. It tolerates up to W-1 unreachable nodes — a successful
// write guarantees W copies, so any fewer failures still leave every key
// with a listable replica; beyond that the listing could silently omit keys
// and fails loudly instead.
func (c *Cluster) Keys(ctx context.Context) ([]string, error) {
	live, err := c.liveKeys(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(live))
	for k := range live {
		out = append(out, k)
	}
	return out, nil
}

// Len implements kv.Store.
func (c *Cluster) Len(ctx context.Context) (int, error) {
	live, err := c.liveKeys(ctx)
	if err != nil {
		return 0, err
	}
	return len(live), nil
}

// liveKeys resolves the set of live keys: per-node key listings, then one
// batched record read per node, then winner resolution per key (without the
// repair machinery — listing is not a data-path read).
func (c *Cluster) liveKeys(ctx context.Context) (map[string]bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	reps, err := c.allMembers()
	if err != nil {
		return nil, err
	}
	type nodeKeys struct {
		rep  replica
		keys []string
		err  error
	}
	listed := make([]nodeKeys, len(reps))
	var wg sync.WaitGroup
	for i, rep := range reps {
		wg.Add(1)
		go func(i int, rep replica) {
			defer wg.Done()
			nctx, cancel := c.nodeCtx(ctx)
			defer cancel()
			ks, err := rep.store.Keys(nctx)
			listed[i] = nodeKeys{rep: rep, keys: ks, err: err}
		}(i, rep)
	}
	wg.Wait()

	failed := 0
	var causes []error
	for _, nk := range listed {
		if nk.err != nil {
			failed++
			causes = append(causes, fmt.Errorf("node %s: %w", nk.rep.id, nk.err))
		}
	}
	if failed > 0 && failed >= c.opts.WriteQuorum {
		return nil, c.quorumError("keys", "", false, causes)
	}

	// Batched record fetch per node, then highest version wins per key.
	type verdict struct {
		ver  uint64
		tomb bool
	}
	winners := make(map[string]verdict)
	var mu sync.Mutex
	for i := range listed {
		nk := listed[i]
		if nk.err != nil || len(nk.keys) == 0 {
			continue
		}
		wg.Add(1)
		go func(nk nodeKeys) {
			defer wg.Done()
			nctx, cancel := c.nodeCtx(ctx)
			defer cancel()
			recs, _ := kv.GetMulti(nctx, nk.rep.store, nk.keys) // partial results still count
			mu.Lock()
			defer mu.Unlock()
			for k, b := range recs {
				rec, derr := DecodeRecord(b)
				if derr != nil {
					continue
				}
				if w, ok := winners[k]; !ok || rec.Version > w.ver {
					winners[k] = verdict{ver: rec.Version, tomb: rec.Tombstone}
				}
			}
		}(nk)
	}
	wg.Wait()

	live := make(map[string]bool, len(winners))
	for k, w := range winners {
		if !w.tomb {
			live[k] = true
		}
	}
	return live, nil
}

// Clear implements kv.Store. A clear that misses a node would resurrect
// everything that node replicates, so it requires full membership: every
// node must acknowledge.
func (c *Cluster) Clear(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	reps, err := c.allMembers()
	if err != nil {
		return err
	}
	all := make([]int, keyStripes)
	for i := range all {
		all[i] = i
	}
	c.lockStripes(all)
	defer c.unlockStripes(all)

	errs := make([]error, len(reps))
	var wg sync.WaitGroup
	for i, rep := range reps {
		wg.Add(1)
		go func(i int, rep replica) {
			defer wg.Done()
			nctx, cancel := c.nodeCtx(ctx)
			defer cancel()
			errs[i] = rep.store.Clear(nctx)
		}(i, rep)
	}
	wg.Wait()
	var causes []error
	for i, err := range errs {
		if err != nil {
			causes = append(causes, fmt.Errorf("node %s: %w", reps[i].id, err))
		}
	}
	if len(causes) > 0 {
		return c.quorumError("clear", "", true, causes)
	}
	c.mu.Lock()
	c.hints = make(map[string][]hint)
	c.mu.Unlock()
	return nil
}

// Close implements kv.Store: it closes every member store (the cluster owns
// its nodes, as OpenSQLStore owns its database).
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	members := make([]kv.Store, 0, len(c.members))
	for _, s := range c.members {
		members = append(members, s)
	}
	c.mu.Unlock()
	var firstErr error
	for _, s := range members {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
