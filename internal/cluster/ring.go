// Package cluster is the gossip-free scale-out tier over gpmetisd: a
// static consistent-hash ring of daemon nodes, each of which knows the
// full member list from a shared peers.json. Jobs are routed by their
// content-addressed digest, so identical submissions land on the node
// that already caches them; non-owned submissions are forwarded over
// HTTP after a cheap cross-node cache peek, and every internode RPC is
// wall-timed per peer and RPC type (DESIGN.md §14).
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Peer is one ring member: a stable numeric identity plus the host:port
// its HTTP API listens on. The identity, not the address, feeds the
// hash, so a node can move hosts without remapping its key share.
type Peer struct {
	ID   int    `json:"id"`
	Addr string `json:"addr"`
}

// peersFile is the on-disk form of the member list (peers.json): every
// node of the ring loads the same file, which is what makes the ring
// gossip-free — membership is configuration, not protocol.
type peersFile struct {
	Nodes []Peer `json:"nodes"`
}

// LoadPeersFile reads and validates a peers.json member list. IDs and
// addresses must be unique and non-empty; at least one node is required.
func LoadPeersFile(path string) ([]Peer, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: read peers file: %w", err)
	}
	var pf peersFile
	if err := json.Unmarshal(data, &pf); err != nil {
		return nil, fmt.Errorf("cluster: parse peers file %s: %w", path, err)
	}
	if len(pf.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: peers file %s lists no nodes", path)
	}
	ids := map[int]bool{}
	addrs := map[string]bool{}
	for _, p := range pf.Nodes {
		if p.ID < 0 {
			return nil, fmt.Errorf("cluster: node id %d must be >= 0", p.ID)
		}
		if strings.TrimSpace(p.Addr) == "" {
			return nil, fmt.Errorf("cluster: node %d has no address", p.ID)
		}
		if ids[p.ID] {
			return nil, fmt.Errorf("cluster: duplicate node id %d", p.ID)
		}
		if addrs[p.Addr] {
			return nil, fmt.Errorf("cluster: duplicate node address %q", p.Addr)
		}
		ids[p.ID] = true
		addrs[p.Addr] = true
	}
	return pf.Nodes, nil
}

// DefaultVNodes is how many virtual nodes each peer contributes to the
// ring when the caller does not choose: enough that removing one node
// spreads its share roughly evenly over the survivors.
const DefaultVNodes = 64

// Ring is a consistent-hash ring with virtual nodes over a fixed member
// list. Construction is deterministic: two processes building a Ring
// from the same peers (in any order) and the same vnode count assign
// every digest to the same owner — the property that lets each node
// route independently without coordination.
type Ring struct {
	peers  []Peer // sorted by ID
	vnodes int
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	peer int // index into peers
}

// NewRing builds the ring. vnodes <= 0 takes DefaultVNodes.
func NewRing(peers []Peer, vnodes int) (*Ring, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one peer")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{peers: append([]Peer(nil), peers...), vnodes: vnodes}
	sort.Slice(r.peers, func(i, j int) bool { return r.peers[i].ID < r.peers[j].ID })
	for i := range r.peers {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: ringHash(fmt.Sprintf("gpmetis.ring.v1|node=%d|vnode=%d", r.peers[i].ID, v)),
				peer: i,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A 64-bit collision between vnode labels is all but impossible,
		// but the tie-break keeps construction strictly deterministic.
		return r.peers[r.points[i].peer].ID < r.peers[r.points[j].peer].ID
	})
	return r, nil
}

// ringHash maps a label or key to its position on the ring: the first 8
// bytes of a SHA-256, so placement is stable across processes, builds,
// and architectures.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Peers returns the member list, sorted by ID.
func (r *Ring) Peers() []Peer { return append([]Peer(nil), r.peers...) }

// VNodes returns the per-peer virtual node count.
func (r *Ring) VNodes() int { return r.vnodes }

// Owner returns the peer owning key: the first virtual node at or after
// the key's ring position, wrapping at the top.
func (r *Ring) Owner(key string) Peer {
	return r.peers[r.points[r.search(key)].peer]
}

// Successors returns every peer in ring order starting at key's owner,
// deduplicated — the failover walk order when the owner is down. Its
// length is always the full member count.
func (r *Ring) Successors(key string) []Peer {
	out := make([]Peer, 0, len(r.peers))
	seen := make([]bool, len(r.peers))
	start := r.search(key)
	for i := 0; i < len(r.points) && len(out) < len(r.peers); i++ {
		pt := r.points[(start+i)%len(r.points)]
		if !seen[pt.peer] {
			seen[pt.peer] = true
			out = append(out, r.peers[pt.peer])
		}
	}
	return out
}

// OwnershipShares returns each peer's fraction of the hash space, by
// peer ID — the arc lengths between consecutive virtual nodes, summed
// per owner. The fleet view renders these so a skewed ring (one node
// owning far more than 1/n of the keyspace) is visible at a glance.
func (r *Ring) OwnershipShares() map[int]float64 {
	shares := make(map[int]float64, len(r.peers))
	for i, pt := range r.points {
		var arc uint64
		if i == 0 {
			// The wraparound arc: from the top point back to the first.
			arc = pt.hash + (^uint64(0) - r.points[len(r.points)-1].hash) + 1
		} else {
			arc = pt.hash - r.points[i-1].hash
		}
		shares[r.peers[pt.peer].ID] += float64(arc) / (1 << 63) / 2
	}
	return shares
}

// RangeOf returns the index of the virtual-node range a key falls in:
// the ring point that owns its position. Anti-entropy groups digest
// summaries by this index, so two nodes with the same ring compare
// per-vnode-range instead of per-entry.
func (r *Ring) RangeOf(key string) int { return r.search(key) }

// search finds the index of the first ring point at or after key's
// position, wrapping to 0 past the top.
func (r *Ring) search(key string) int {
	h := ringHash("gpmetis.ring.key.v1|" + key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}
