// Package fleet is the multi-node serving tier: a thin router that
// consistent-hashes user → replica over N downstream clmserve replicas,
// speaking the same NDJSON /score protocol one level up from
// stream.ShardedDetector's hash(user) → shard. Robustness is the point:
// per-replica health probing with an ejection/readmission state machine,
// per-request timeouts with capped exponential backoff (Retry-After
// honored on 429), session failover that migrates per-user windows across
// replicas (live export from a draining replica, verdict-built shadow
// windows when the source died), and a rolling fleet reload that never
// takes more than one replica out of rotation.
package fleet

import (
	"sort"
	"strconv"
)

// fnv1a is the same FNV-1a math stream.shardOf uses, one level up: the
// fleet ring and the in-process shard router agree on the hash family, so
// the fleet tier is the natural outer ring of the same partitioning story.
// The []byte form hashes vnode labels and the router's request users
// without a string allocation.
func fnv1a[T string | []byte](s T) uint32 {
	h := uint32(2166136261) // FNV-1a offset basis
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619 // FNV prime
	}
	return h
}

// ringPoint is one virtual node: a hash position owned by a replica.
type ringPoint struct {
	hash uint32
	addr string
}

// Ring is an immutable consistent-hash ring over a set of replica
// addresses, each owning vnodes virtual points. Lookup maps a user to the
// first point clockwise of hash(user): when a replica joins or leaves,
// only the users whose arcs touched it move — the property that keeps a
// replica ejection from reshuffling every session in the fleet (a plain
// hash(user) % N would move nearly all of them).
type Ring struct {
	points []ringPoint
}

// vnodes is the virtual-node count per replica: enough points that a 2–16
// replica fleet balances within a few percent, cheap enough that ring
// rebuilds stay microseconds.
const vnodes = 64

// BuildRing constructs a ring over addrs with vnodes virtual points per
// replica. An empty addrs yields an empty ring (Lookup returns "").
// Construction is deterministic in the set — order of addrs does not
// matter.
func BuildRing(addrs []string) *Ring {
	r := &Ring{points: make([]ringPoint, 0, len(addrs)*vnodes)}
	var buf []byte
	for _, a := range addrs {
		for i := 0; i < vnodes; i++ {
			// addr "#" i: distinct, stable virtual point labels.
			buf = append(append(buf[:0], a...), '#')
			buf = strconv.AppendInt(buf, int64(i), 10)
			r.points = append(r.points, ringPoint{hash: fnv1a(buf), addr: a})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (rare) break on address so the ring is deterministic
		// in the set regardless of insertion order.
		return r.points[i].addr < r.points[j].addr
	})
	return r
}

// Empty reports whether the ring has no points (no healthy replicas).
func (r *Ring) Empty() bool { return len(r.points) == 0 }

// Lookup returns the replica owning user: the first virtual point at or
// clockwise of hash(user), wrapping at the top. "" on an empty ring.
func (r *Ring) Lookup(user string) string { return r.owner(fnv1a(user)) }

// owner returns the replica owning the user that hashes to h.
func (r *Ring) owner(h uint32) string {
	if len(r.points) == 0 {
		return ""
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].addr
}
