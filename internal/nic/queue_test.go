package nic

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"gathernoc/internal/flit"
	"gathernoc/internal/topology"
)

// TestQueueEntrySizePin: an injection-queue entry, of which a saturated
// source holds one per packet it has not sent, stays within 32 bytes (a
// whole flit.Packet took 88).
func TestQueueEntrySizePin(t *testing.T) {
	if size := unsafe.Sizeof(queued{}); size > 32 {
		t.Errorf("queued is %d bytes, pin 32", size)
	}
}

// backlogNIC returns NIC id of a 16-node fabric with every kind of packet
// queued, twice over: plain unicasts, unicasts carrying a payload, one
// longer than an entry's 16-bit length holds, multicasts with and without
// a payload, gathers with and without their sender's payload, and
// accumulates. Nothing is ticked, so all of them stay queued.
func backlogNIC(t *testing.T, id topology.NodeID) *NIC {
	t.Helper()
	cfg := validConfig()
	cfg.EnableINA = true
	n, err := newNIC(id, cfg, nil, seq())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		tag := flit.NewTag(i, 1)
		pay := func(s uint64) flit.Payload {
			return flit.Payload{Seq: s, Src: id, Dst: 7, Bits: 32, Value: 3 * s, ReduceID: 9}
		}
		n.SendUnicastN(tag, 5, 2)
		n.SendUnicastPayload(tag, 6, pay(uint64(10*i+1)))
		n.SendUnicastN(tag, 7, 1<<16+3)
		n.SendMulticast(tag, topology.DestSetOf(16, 1, 2, 9), 2)
		n.SendMulticastPayload(tag, topology.DestSetOf(16, 4, 12), 3, pay(uint64(10*i+2)))
		own := pay(uint64(10*i + 3))
		n.SendGather(tag, 7, &own)
		n.SendGather(tag, 7, nil)
		n.SendAccumulate(tag, 7, 9, pay(uint64(10*i+4)))
		n.SendUnicastN(0, 15, 1)
	}
	return n
}

// backlog returns the packets queued at n, front first, each carried
// payload copied out of n's side table.
func backlog(n *NIC) []flit.Packet {
	var out []flit.Packet
	for i := 0; i < n.queue.Len(); i++ {
		p := n.packet(n.queue.At(i))
		if p.Carried != nil {
			own := *p.Carried
			p.Carried = &own
		}
		out = append(out, p)
	}
	return out
}

// TestBacklogSnapshotRoundTrip: a NIC whose queue holds every kind of
// packet encodes to bytes that load into a fresh NIC holding the same
// packets, which encodes to the same bytes; popping either queue gives
// the packets as sent and frees every side-table slot for the next ones.
func TestBacklogSnapshotRoundTrip(t *testing.T) {
	n := backlogNIC(t, 3)
	want := backlog(n)
	if len(want) != 18 {
		t.Fatalf("%d packets queued, want 18", len(want))
	}
	for _, p := range want {
		if p.Src != 3 {
			t.Fatalf("queued packet %+v rebuilt with source %d", p, p.Src)
		}
	}
	if p := want[2]; p.Flits != 1<<16+3 {
		t.Fatalf("long unicast rebuilt with %d flits", p.Flits)
	}
	var e flit.Encoder
	e.ResetAbsolute(nil)
	n.AppendState(&e)
	encoded := bytes.Clone(e.Bytes())

	cfg := validConfig()
	cfg.EnableINA = true
	fresh, err := newNIC(3, cfg, nil, seq())
	if err != nil {
		t.Fatal(err)
	}
	var d flit.Decoder
	d.Reset(encoded, 16, 20)
	if err := fresh.LoadState(&d); err != nil {
		t.Fatal(err)
	}
	if got := backlog(fresh); !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded backlog differs:\n got %+v\nwant %+v", got, want)
	}
	e.ResetAbsolute(nil)
	fresh.AppendState(&e)
	if !bytes.Equal(e.Bytes(), encoded) {
		t.Fatal("the loaded NIC encodes to other bytes")
	}
	for _, nic := range []*NIC{n, fresh} {
		for i := range want {
			if p := nic.pop(); !reflect.DeepEqual(p, want[i]) {
				t.Fatalf("pop %d: %+v, want %+v", i, p, want[i])
			}
		}
		for i, pc := range nic.rare {
			if !reflect.DeepEqual(pc.pkt, flit.Packet{}) {
				t.Errorf("side-table slot %d still holds %+v after the queue drained", i, pc.pkt)
			}
		}
		slots := len(nic.rare)
		refill := make([]parcel, len(want))
		for i, p := range want {
			refill[i] = parcel{pkt: p}
			if p.Carried != nil {
				refill[i].pkt.Carried = nil
				refill[i].own, refill[i].carries = *p.Carried, true
			}
		}
		for _, pc := range refill {
			nic.push(pc)
		}
		if len(nic.rare) != slots {
			t.Errorf("refilling the queue grew the side table from %d to %d slots", slots, len(nic.rare))
		}
	}
}

// TestLoadRefusesAForeignBacklog: a queue entry stores no source, so a
// queued packet from another node is refused at load.
func TestLoadRefusesAForeignBacklog(t *testing.T) {
	var e flit.Encoder
	e.ResetAbsolute(nil)
	backlogNIC(t, 3).AppendState(&e)
	other, err := newNIC(4, validConfig(), nil, seq())
	if err != nil {
		t.Fatal(err)
	}
	var d flit.Decoder
	d.Reset(e.Bytes(), 16, 20)
	if err := other.LoadState(&d); err == nil || !strings.Contains(err.Error(), "queue of node 4") {
		t.Fatalf("loading node 3's backlog into node 4: %v", err)
	}
}
