// Package fleet is the routing tier that turns N independent cfixd
// daemons into one fault-tolerant service: it consistent-hash-routes
// every request by its content fingerprint (the same key the result
// cache stores the outcome under, so identical requests always land on
// the shard that already holds or is computing their result), probes
// backend readiness and ejects the unready, retries connect/5xx
// failures on the next replica with jittered backoff, hedges tail
// latency, and collapses a thundering herd on one hot key into a single
// upstream computation.
//
// The router serves /v1/fix, /v1/lint and /v1/batch on the daemon's own
// request path (server.Tier): the same admission control, body cap,
// strict decoding and validation, response writers, panic containment,
// probes and latency histogram. It adds per-backend
// routed/retried/hedged/ejected counters to /metrics. See DESIGN.md
// Section 14.
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// defaultVnodes is the virtual-node count per backend. 128 points per
// member keeps the load spread within a few percent of uniform for
// small fleets while the ring stays tiny (3 backends = 384 points).
const defaultVnodes = 128

// ringPoint is one virtual node: a position on the 64-bit hash circle
// owned by one member.
type ringPoint struct {
	hash   uint64
	member int // index into Ring.members
}

// Ring is a consistent-hash ring over a fixed member set. It is
// immutable after New — the fleet membership is configuration, not
// runtime state (ejection is a health overlay in the router, not a ring
// mutation, so a flapping backend does not reshuffle every key).
type Ring struct {
	members []string
	points  []ringPoint
}

// NewRing builds a ring over members with vnodes virtual nodes each
// (<= 0 means the default 128). Member order does not matter; the ring
// for {a,b,c} equals the ring for {c,a,b}.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVnodes
	}
	r := &Ring{members: append([]string(nil), members...)}
	r.points = make([]ringPoint, 0, len(members)*vnodes)
	for mi, m := range r.members {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", m, v)), member: mi})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Identical 64-bit hashes are vanishingly rare; break the tie by
		// member so the ring is deterministic regardless of input order.
		return r.members[r.points[i].member] < r.members[r.points[j].member]
	})
	return r
}

// ringHash is 64-bit FNV-1a: fast, dependency-free, and uniform enough
// for vnode placement (the routed keys themselves are sha256 hex, so
// key-side clustering is not a concern).
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Members returns the configured member list in input order.
func (r *Ring) Members() []string { return r.members }

// Owner returns the member owning key (the first replica).
func (r *Ring) Owner(key string) string {
	return r.Replicas(key)[0]
}

// Replicas returns every distinct member in preference order for key:
// the owner first, then each next distinct member walking the ring
// clockwise. The router tries them in order for retries and hedges, so
// a key's fallback shard is as stable as its primary.
func (r *Ring) Replicas(key string) []string {
	if len(r.members) == 0 {
		return nil
	}
	h := ringHash(key)
	// First point at or after h, wrapping.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, len(r.members))
	seen := make([]bool, len(r.members))
	for n := 0; n < len(r.points) && len(out) < len(r.members); n++ {
		p := r.points[(i+n)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, r.members[p.member])
		}
	}
	return out
}
