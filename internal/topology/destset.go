package topology

import (
	"math/bits"
	"strings"
)

// DestSet is the bit-string multicast destination representation carried in
// the MDst field of a header flit (Fig. 3a). Bit i set means NodeID i is a
// destination. The zero value is an empty set.
type DestSet struct {
	words []uint64
}

// NewDestSet returns an empty set sized for a mesh of n nodes.
func NewDestSet(n int) *DestSet {
	return &DestSet{words: make([]uint64, (n+63)/64)}
}

// DestSetOf returns a set containing exactly the given nodes, sized for n
// total nodes.
func DestSetOf(n int, nodes ...NodeID) *DestSet {
	s := NewDestSet(n)
	for _, id := range nodes {
		s.Add(id)
	}
	return s
}

// Clone returns an independent copy of the set.
func (s *DestSet) Clone() *DestSet {
	c := &DestSet{words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Add inserts id. Out-of-range ids are ignored.
func (s *DestSet) Add(id NodeID) {
	w := int(id) / 64
	if id < 0 || w >= len(s.words) {
		return
	}
	s.words[w] |= 1 << (uint(id) % 64)
}

// Len returns the number of destinations in the set.
func (s *DestSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Nodes returns the member NodeIDs in ascending order.
func (s *DestSet) Nodes() []NodeID {
	out := make([]NodeID, 0, s.Len())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, NodeID(wi*64+b))
			w &^= 1 << uint(b)
		}
	}
	return out
}

// Words returns the set's bit words, bit i of word w standing for node
// w*64+i. The slice is the set's own: read it, never modify it.
func (s *DestSet) Words() []uint64 { return s.words }

// String renders the member list, e.g. "{1,5,9}".
func (s *DestSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, id := range s.Nodes() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmtInt(&b, int(id))
	}
	b.WriteByte('}')
	return b.String()
}

func fmtInt(b *strings.Builder, v int) {
	if v < 0 {
		b.WriteByte('-')
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	b.Write(buf[i:])
}

// MulticastBranch describes one fork of an XY multicast tree at a router:
// the subset of destinations that continue through Out.
type MulticastBranch struct {
	Out  Port
	Dsts *DestSet
}

// MulticastRoute partitions a destination set at node cur into XY-tree
// branches on any topology's coordinate grid. The tree always uses the
// mesh sub-network steps (column first, then row) — on a torus the
// wraparound links stay unused, so the branches remain deadlock-free
// under a single VC class on every fabric (DESIGN.md §7). Destinations
// equal to cur are reported via deliverLocal. Each destination appears in
// exactly one branch, so repeated application forms a tree: no link ever
// carries the same multicast packet twice (the redundant-traffic property
// multicast exists to provide, Sec. II).
func MulticastRoute(t Topology, cur NodeID, dsts *DestSet) (branches []MulticastBranch, deliverLocal bool) {
	var byPort [NumPorts]*DestSet
	cc := t.Coord(cur)
	for _, d := range dsts.Nodes() {
		cd := t.Coord(d)
		if cd == cc {
			deliverLocal = true
			continue
		}
		p := xyStep(cc, cd)
		if byPort[p] == nil {
			byPort[p] = NewDestSet(t.NumNodes())
		}
		byPort[p].Add(d)
	}
	for p := Port(0); p < NumPorts; p++ {
		if byPort[p] != nil {
			branches = append(branches, MulticastBranch{Out: p, Dsts: byPort[p]})
		}
	}
	return branches, deliverLocal
}
