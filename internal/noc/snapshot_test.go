package noc

import (
	"strings"
	"testing"

	"gathernoc/internal/flit"
	"gathernoc/internal/link"
	"gathernoc/internal/topology"
)

// busySnapshot runs a 3x3 fabric with row sinks and INA under every kind of
// traffic — unicasts to PEs and sinks, multicasts carrying a payload, gather
// and accumulate packets, payloads and operands waiting at the stations —
// and returns its configuration and an encoded snapshot taken mid-flight.
func busySnapshot(t testing.TB) (Config, []byte) {
	t.Helper()
	cfg := DefaultConfig(3, 3)
	cfg.EnableINA = true
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	for id := 0; id < 9; id++ {
		src, row := topology.NodeID(id), id/3
		sink := nw.RowSinkID(row)
		n := nw.NIC(src)
		p := func(seq uint64, dst topology.NodeID) flit.Payload {
			return flit.Payload{Seq: seq, Src: src, Dst: dst, Bits: 32, Value: seq * 3, ReduceID: uint64(row + 1)}
		}
		n.SendUnicastPayload(0, (src+4)%9, p(uint64(10*id+1), (src+4)%9))
		n.SendMulticastPayload(0, topology.DestSetOf(9, (src+1)%9, (src+5)%9), 2, p(uint64(10*id+2), (src+1)%9))
		if id%3 == 0 {
			own, acc := p(uint64(10*id+3), sink), p(uint64(10*id+4), sink)
			n.SendGather(0, sink, &own)
			n.SendAccumulate(0, sink, acc.ReduceID, acc)
		} else {
			n.SubmitGatherPayload(0, p(uint64(10*id+5), sink))
			n.SubmitReduceOperand(0, p(uint64(10*id+6), sink))
		}
		n.SendUnicastPayload(0, sink, p(uint64(10*id+7), sink))
	}
	nw.Engine().RunUntil(func() bool { return false }, 9)
	if nw.Quiescent() {
		t.Fatal("the fabric drained before the snapshot")
	}
	s, err := nw.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, data
}

// restoreDamaged decodes data and restores it onto a fresh network of cfg:
// it must be refused with an error or restore to a network that passes
// CheckInvariants, and it must not panic.
func restoreDamaged(t *testing.T, cfg Config, data []byte, what string) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("%s: panic: %v", what, p)
		}
	}()
	s, err := DecodeSnapshot(data)
	if err != nil {
		return
	}
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	if nw.Restore(s) != nil {
		return
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatalf("%s: restored a network that fails its invariants: %v", what, err)
	}
}

// TestRestoreRefusesDamagedSnapshots truncates a busy snapshot at every
// length and flips every byte of it, one at a time: DecodeSnapshot and
// Restore must refuse each with an error or yield a network that passes
// CheckInvariants, and must never panic.
func TestRestoreRefusesDamagedSnapshots(t *testing.T) {
	cfg, data := busySnapshot(t)
	restoreDamaged(t, cfg, data, "the snapshot itself")
	for n := range data {
		restoreDamaged(t, cfg, data[:n], "a truncation")
	}
	b := make([]byte, len(data))
	for i := range data {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			copy(b, data)
			b[i] ^= mask
			restoreDamaged(t, cfg, b, "a flipped byte")
		}
	}
}

// FuzzRestoreSnapshot: any bytes decode and restore to a network that
// passes CheckInvariants, or are refused with an error; nothing panics.
func FuzzRestoreSnapshot(f *testing.F) {
	cfg, data := busySnapshot(f)
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		restoreDamaged(t, cfg, data, "fuzzed bytes")
	})
}

// refusedRestore snapshots nw, which the caller has edited, and restores
// the encoded snapshot onto a fresh network of the same configuration: the
// restore must fail with an error containing want.
func refusedRestore(t *testing.T, nw *Network, want string) {
	t.Helper()
	s, err := nw.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	restoreDamaged(t, nw.Config(), data, "the edited snapshot")
	decoded, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(nw.Config())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.Restore(decoded); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("restore of the edited snapshot: %v, want an error containing %q", err, want)
	}
}

// A credit returned without a flit leaving the buffer breaks the channel's
// conservation: restored and run, the upstream router would send into a
// full buffer ("overflow"). Restore refuses it.
func TestRestoreRefusesUnbalancedCredits(t *testing.T) {
	cfg, data := busySnapshot(t)
	s, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	if err := nw.Restore(s); err != nil {
		t.Fatal(err)
	}
	nw.linkRecs[0].l.ReturnCredit(1, nw.Engine().Cycle())
	refusedRestore(t, nw, "buffer slots")
}

// A multicast head on a link into a router without its destination set
// would panic at the router's route computation. Restore refuses it. The
// edit replaces the head of a real packet on the same VC, so the channel's
// credits still balance and the destination check is the one that fails.
func TestRestoreRefusesMulticastHeadWithoutSet(t *testing.T) {
	c := DefaultConfig(3, 3)
	nw, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	nw.NIC(0).SendUnicastN(0, 4, 1)
	nw.Engine().Step() // the NIC puts the flit on its injection link
	var inj *link.Link
	for _, rec := range nw.linkRecs {
		if rec.intoRouter && rec.upID == 0 && rec.downID == 0 {
			inj = rec.l
		}
	}
	vc := -1
	for v := 0; v < c.Router.VCs; v++ {
		if nw.NIC(0).Credits(v) < c.Router.BufferDepth {
			vc = v
		}
	}
	if inj == nil || inj.InFlight() != 1 || vc < 0 {
		t.Fatalf("no flit on node 0's injection link (link %v, vc %d)", inj, vc)
	}
	var e flit.Encoder
	e.ResetAbsolute(nil)
	e.Uint(0) // flits carried
	e.Uint(0) // credits carried
	e.Uint(0) // no owed credits
	e.Bool(false)
	e.Uint(1)
	(&flit.Flit{Type: flit.Head, PT: flit.Multicast, PacketID: 1, Src: 0}).AppendState(&e)
	e.Int(int64(vc))
	e.Cycle(nw.Engine().Cycle())
	e.Uint(0) // no credits on the wire
	if err := inj.LoadState(nw.decoder(e.Bytes(), nw.Engine().Cycle()), nw.FlitPool(), c.Router.VCs); err != nil {
		t.Fatal(err)
	}
	refusedRestore(t, nw, "no destination set")
}
