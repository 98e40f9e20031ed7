// Package fault is the deterministic fault-injection subsystem: transient
// flit drops and corruption on links, plus scheduled link and router
// outages, all decided by pure hashes of stable identifiers (seed, link
// index, packet ID) or by cycle windows. Because no shared random state is
// consulted, the fault schedule of a run is a function of the
// configuration alone — bit-identical at every shard count — and the
// recovery machinery layered on top (NIC retransmission, ejector duplicate
// suppression, port masks for the adaptive routings) can be tested for
// exact payload conservation.
package fault

import (
	"fmt"
	"math"
	"slices"
)

// Window is a half-open cycle interval [From, Until) during which an
// outage is active. Until <= 0 means the outage is permanent.
type Window struct {
	From  int64
	Until int64
}

// active reports whether the window covers cycle now.
func (w Window) active(now int64) bool {
	return now >= w.From && (w.Until <= 0 || now < w.Until)
}

// WindowSet is a small list of outage windows (typically zero or one).
type WindowSet []Window

// active reports whether any window covers cycle now.
func (ws WindowSet) active(now int64) bool {
	for _, w := range ws {
		if w.active(now) {
			return true
		}
	}
	return false
}

// LinkOutage schedules a directed inter-router link dead for a window:
// every packet whose head reaches the link while the window is active is
// dropped whole (the fabric sees a cut wire, not a truncated wormhole).
type LinkOutage struct {
	// SrcNode and DstNode name the link by the routers it connects, in
	// traversal direction.
	SrcNode, DstNode int
	Window
}

// RouterOutage schedules a whole router dead for a window: every link
// incident to the router (inter-router links in both directions plus the
// local NIC's injection and ejection links) drops packets while the
// window is active, partitioning the node off the fabric.
type RouterOutage struct {
	Node int
	Window
}

// Retransmission policy defaults (see Config).
const (
	DefaultRetryTimeout = 256
	DefaultRetryCap     = 4
	DefaultMaxRetries   = 8
)

// Config declares a deterministic fault schedule and the reliability
// policy that recovers from it. The zero value injects nothing; a nil
// *Config in noc.Config disables the subsystem entirely (no per-cycle
// overhead, bit-identical to a fault-free build).
type Config struct {
	// Seed salts every fault decision. Two runs with the same seed and
	// schedule observe identical faults at every shard count.
	Seed uint64

	// DropRate is the probability that a packet is dropped while
	// traversing one link (whole-packet, decided at the head flit).
	DropRate float64
	// CorruptRate is the probability that a packet is corrupted while
	// traversing one link. Corrupted packets consume wire bandwidth
	// normally and are discarded by the receiver's CRC check at ejection.
	CorruptRate float64

	// Links and Routers schedule hard outages on top of the transient
	// rates above.
	Links   []LinkOutage
	Routers []RouterOutage

	// RetryTimeout is the base end-to-end retransmission timeout in
	// cycles (0 = DefaultRetryTimeout). Each retry doubles the timeout up
	// to RetryCap doublings (capped exponential backoff).
	RetryTimeout int64
	// RetryCap bounds the exponential backoff (0 = DefaultRetryCap).
	RetryCap int
	// MaxRetries is the number of retransmissions attempted before a
	// payload is abandoned (0 = DefaultMaxRetries; < 0 = never abandon).
	// Abandonment is what lets a permanently partitioned run go quiet so
	// the stall watchdog can convert it into a diagnostic.
	MaxRetries int
}

// Enabled reports whether the configuration can inject any fault.
func (c *Config) Enabled() bool {
	if c == nil {
		return false
	}
	return c.DropRate > 0 || c.CorruptRate > 0 || len(c.Links) > 0 || len(c.Routers) > 0
}

// Validate checks rates and windows. Node-range checks against a concrete
// topology happen in noc.Config.Validate.
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	if c.DropRate < 0 || c.DropRate > 1 {
		return fmt.Errorf("fault: DropRate %v outside [0, 1]", c.DropRate)
	}
	if c.CorruptRate < 0 || c.CorruptRate > 1 {
		return fmt.Errorf("fault: CorruptRate %v outside [0, 1]", c.CorruptRate)
	}
	for _, o := range c.Links {
		if err := validateWindow(o.Window); err != nil {
			return fmt.Errorf("fault: link outage %d>%d: %w", o.SrcNode, o.DstNode, err)
		}
	}
	for _, o := range c.Routers {
		if err := validateWindow(o.Window); err != nil {
			return fmt.Errorf("fault: router outage %d: %w", o.Node, err)
		}
	}
	if c.RetryTimeout < 0 {
		return fmt.Errorf("fault: RetryTimeout %d negative", c.RetryTimeout)
	}
	if c.RetryCap < 0 {
		return fmt.Errorf("fault: RetryCap %d negative", c.RetryCap)
	}
	return nil
}

func validateWindow(w Window) error {
	if w.From < 0 {
		return fmt.Errorf("window From %d negative", w.From)
	}
	if w.Until > 0 && w.Until <= w.From {
		return fmt.Errorf("window [%d, %d) empty", w.From, w.Until)
	}
	return nil
}

// EffectiveRetryTimeout resolves the base retransmission timeout.
func (c *Config) EffectiveRetryTimeout() int64 {
	if c == nil || c.RetryTimeout <= 0 {
		return DefaultRetryTimeout
	}
	return c.RetryTimeout
}

// EffectiveRetryCap resolves the backoff doubling cap.
func (c *Config) EffectiveRetryCap() int {
	if c == nil || c.RetryCap <= 0 {
		return DefaultRetryCap
	}
	return c.RetryCap
}

// EffectiveMaxRetries resolves the abandonment bound; < 0 means retry
// forever.
func (c *Config) EffectiveMaxRetries() int {
	if c == nil {
		return DefaultMaxRetries
	}
	if c.MaxRetries < 0 {
		return math.MaxInt
	}
	if c.MaxRetries == 0 {
		return DefaultMaxRetries
	}
	return c.MaxRetries
}

// mix is the stateless decision hash (the same splitmix-style finalizer
// telemetry uses for trace sampling): a pure function of the salt and the
// packet ID, so every flit of a packet — on every shard layout — computes
// the same verdict.
func mix(salt, x uint64) uint64 {
	x ^= salt
	x *= 0x9E3779B97F4A7C15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// threshold maps a probability in [0, 1] to a uint64 comparison bound.
func threshold(rate float64) uint64 {
	if rate <= 0 {
		return 0
	}
	if rate >= 1 {
		return math.MaxUint64
	}
	return uint64(rate * float64(1<<63) * 2)
}

// Injector is the compiled form of a Config: per-link decision state plus
// aggregate counters. The network layer registers one LinkState per faulted
// link (in construction order, which is shard-count-invariant) and calls
// into it from the link commit phase.
type Injector struct {
	cfg      *Config
	dropT    uint64
	corruptT uint64
	links    []*LinkState
	// doomed is what is left of the block the links' drop sets are cut
	// from, vcs entries each (AddLink).
	doomed []uint64
	vcs    int
}

// NewInjector compiles cfg for a fabric whose links carry vcs virtual
// channels, with room for links registered links: their list and their
// drop sets are allocated here, once (a link past them allocates its own
// drop set). The caller is expected to have validated cfg.
func NewInjector(cfg *Config, links, vcs int) *Injector {
	return &Injector{
		cfg:      cfg,
		dropT:    threshold(cfg.DropRate),
		corruptT: threshold(cfg.CorruptRate),
		links:    make([]*LinkState, 0, links),
		doomed:   make([]uint64, links*vcs),
		vcs:      vcs,
	}
}

// AddLink makes ls the decision state of the link with the given
// construction index and scheduled outage windows, and registers it for the
// aggregate counters. transient applies the configured drop and corrupt
// rates on top of the windows; the network layer leaves them off the links
// hit by a RouterOutage that are not fabric links (NIC injection/ejection,
// sink channels): transient noise models inter-router wires, but a dead
// router severs its local channels too. Each LinkState is owned by the
// shard that commits the link's flits; the injector only aggregates
// counters after phases complete.
func (in *Injector) AddLink(ls *LinkState, index int, outages WindowSet, transient bool) {
	*ls = LinkState{salt: mix(in.cfg.Seed, uint64(index)+1), windows: outages}
	if transient {
		ls.dropT, ls.corruptT = in.dropT, in.corruptT
	}
	// A packet-atomic drop keeps at most one doomed packet per VC.
	if len(in.doomed) < in.vcs {
		in.doomed = make([]uint64, in.vcs)
	}
	ls.doomed = in.doomed[:0:in.vcs]
	in.doomed = in.doomed[in.vcs:]
	in.links = append(in.links, ls)
}

// Drops sums packet-drop flit counts across all links. Only safe between
// phases (tests, telemetry snapshots, post-run reports).
func (in *Injector) Drops() uint64 {
	var n uint64
	for _, ls := range in.links {
		n += ls.Drops
	}
	return n
}

// Corrupts sums corrupted-packet counts across all links.
func (in *Injector) Corrupts() uint64 {
	var n uint64
	for _, ls := range in.links {
		n += ls.Corrupts
	}
	return n
}

// LinkState decides, flit by flit, what one link does to traffic. All
// methods are called from the link's commit phase only, so the state has a
// single writer.
type LinkState struct {
	salt     uint64
	dropT    uint64
	corruptT uint64
	windows  WindowSet

	// doomed lists the multi-flit packets whose head was dropped, so the
	// body and tail vanish at the same link (drops are packet-atomic: the
	// downstream router never sees a truncated wormhole). A VC carries one
	// packet at a time, so it holds at most one packet per VC and is cut
	// to that capacity (AddLink). It is kept sorted, so that equal states
	// encode alike without the encoder writing to it.
	doomed []uint64

	// Drops counts dropped flits; Corrupts counts corrupted packets.
	Drops    uint64
	Corrupts uint64
}

// Cut reports whether a scheduled outage covers cycle now.
func (ls *LinkState) Cut(now int64) bool { return ls.windows.active(now) }

// DropFlit decides whether the flit with the given packet ID and
// head/tail position is dropped at this link. The verdict is made at the
// head (transient hash or outage window) and then applied to every
// remaining flit of the packet.
func (ls *LinkState) DropFlit(pid uint64, head, tail bool, now int64) bool {
	if head {
		doomedNow := ls.Cut(now) || (ls.dropT > 0 && mix(ls.salt, pid) < ls.dropT)
		if doomedNow {
			if !tail {
				i, _ := slices.BinarySearch(ls.doomed, pid)
				ls.doomed = slices.Insert(ls.doomed, i, pid)
			}
			ls.Drops++
		}
		return doomedNow
	}
	i, ok := slices.BinarySearch(ls.doomed, pid)
	if !ok {
		return false
	}
	if tail {
		ls.doomed = slices.Delete(ls.doomed, i, i+1)
	}
	ls.Drops++
	return true
}

// CorruptFlit decides whether the packet traversing this link is
// corrupted. Like drops, the verdict is per packet (every flit of a
// corrupted packet is marked, and the receiver discards the reassembled
// packet); unlike drops the flits still travel and consume bandwidth.
func (ls *LinkState) CorruptFlit(pid uint64, head bool) bool {
	if ls.corruptT == 0 {
		return false
	}
	// A distinct salt keeps the corrupt schedule independent of the drop
	// schedule at the same rate.
	if mix(ls.salt^0xD6E8FEB86659FD93, pid) >= ls.corruptT {
		return false
	}
	if head {
		ls.Corrupts++
	}
	return true
}
