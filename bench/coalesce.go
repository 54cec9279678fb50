package main

import (
	"io"
	"os"
	"sort"

	"adscape/internal/wire"
)

const (
	// maxOpenSlots bounds how many output packets the coalescer holds back
	// while waiting for an aggregate at the head of the queue to close.
	maxOpenSlots = 1 << 16
	// maxAggregate is the largest WireLen an aggregate may reach: the 64 KiB a
	// single segment can carry, which is also what real LRO stops at and what
	// wire.Reader's lenient plausibility check accepts.
	maxAggregate = 1 << 16
)

// coalescer merges runs of payload-less data segments the way a NIC's large
// receive offload does. A segment joins the flow's open aggregate when it is
// the flow's very next packet, continues the aggregate's sequence range,
// carries nothing but ACK, and arrives in order — exactly at the sequence
// number wire's reassembler expects for that direction (seqMirror). The
// aggregate keeps the position and timestamp of its first segment and its
// WireLen is the sum, up to 64 KiB.
//
// Why this cannot change the HTTP transaction log: an in-order segment without
// captured payload only advances the reassembler's cursor, so a run of them
// and their aggregate leave it in the same state at the same point of the
// flow's packet order. Segments that are ahead of the cursor are left alone —
// folding them would change how many segments wait in the 64-segment reorder
// window, and with it where the reassembler declares a gap, which on the
// simulator's overlapping pipelined responses decides which response headers
// survive. Segments with captured payload (HTTP headers, ClientHellos) and
// every SYN/FIN/RST pass through untouched, in place.
type coalescer struct {
	out     func(*wire.Packet) error
	queue   []*slot // output order; queue[0] is written once it is closed
	open    map[wire.FourTuple]*slot
	mirrors map[wire.FourTuple]*seqMirror
	limits  wire.Limits
}

type slot struct {
	pkt    wire.Packet
	key    wire.FourTuple
	isOpen bool
}

func (c *coalescer) add(p *wire.Packet) error {
	key := p.Tuple()
	if p.Flags&(wire.FlagSYN|wire.FlagFIN|wire.FlagRST) != 0 {
		// The flow table starts or ends a flow here; its reassemblers go
		// with it.
		delete(c.mirrors, key)
		delete(c.mirrors, key.Reverse())
	}
	inOrder := false
	if p.WireLen > 0 {
		m := c.mirrors[key]
		if m == nil {
			m = &seqMirror{maxSegs: c.limits.MaxBufferedSegments, maxBytes: c.limits.MaxBufferedBytes}
			c.mirrors[key] = m
		}
		inOrder = m.push(p.Seq, p.WireLen, len(p.Payload))
	}
	merge := inOrder && len(p.Payload) == 0 && p.Flags == wire.FlagACK
	if s := c.open[key]; s != nil {
		if merge && p.Seq == s.pkt.Seq+s.pkt.WireLen && s.pkt.WireLen+p.WireLen <= maxAggregate {
			s.pkt.WireLen += p.WireLen
			return nil
		}
		c.close(s)
	}
	// Any other packet of the flow, in either direction, ends the run: the
	// flow's own packet order is never changed.
	if s := c.open[key.Reverse()]; s != nil {
		c.close(s)
	}
	s := &slot{pkt: *p, key: key}
	if merge {
		s.isOpen = true
		c.open[key] = s
	}
	c.queue = append(c.queue, s)
	if len(c.queue) > maxOpenSlots {
		c.close(c.queue[0])
	}
	return c.drain()
}

func (c *coalescer) close(s *slot) {
	if s.isOpen {
		s.isOpen = false
		delete(c.open, s.key)
	}
}

// seqMirror follows one direction of a flow the way wire's reassembler does,
// on sequence numbers alone: the cursor, the segments waiting ahead of it, and
// the forced gap when more wait than the reorder window or byte cap allows.
type seqMirror struct {
	next         uint32
	started      bool
	pending      []mirrorSeg
	pendingBytes int
	maxSegs      int
	maxBytes     int
}

type mirrorSeg struct {
	seq, wireLen uint32
	captured     int
}

// defaultReorderWindow is wire's reorder window when Limits leaves it zero.
const defaultReorderWindow = 64

func seqLess(a, b uint32) bool { return int32(a-b) < 0 }

// push accounts for one data segment and reports whether it arrived exactly
// at the cursor.
func (m *seqMirror) push(seq, wireLen uint32, captured int) (inOrder bool) {
	if !m.started {
		m.started, m.next = true, seq
	}
	inOrder = seq == m.next
	if seqLess(seq, m.next) {
		if !seqLess(m.next, seq+wireLen) {
			return false // wholly delivered already
		}
		skip := m.next - seq
		if captured -= int(skip); captured < 0 {
			captured = 0
		}
		seq, wireLen = m.next, wireLen-skip
	}
	m.pending = append(m.pending, mirrorSeg{seq, wireLen, captured})
	m.pendingBytes += captured
	sort.SliceStable(m.pending, func(i, j int) bool { return seqLess(m.pending[i].seq, m.pending[j].seq) })
	m.drain()
	window := m.maxSegs
	if window == 0 {
		window = defaultReorderWindow
	}
	for len(m.pending) > window || (m.maxBytes > 0 && m.pendingBytes > m.maxBytes) {
		s := m.pending[0]
		m.next = s.seq + s.wireLen
		m.pending = m.pending[1:]
		m.pendingBytes -= s.captured
		m.drain()
	}
	return inOrder
}

// drain consumes every waiting segment that chains at, or lies behind, the
// cursor.
func (m *seqMirror) drain() {
	for progress := true; progress; {
		progress = false
		for i, s := range m.pending {
			if s.seq != m.next && !seqLess(s.seq, m.next) {
				continue
			}
			if s.seq == m.next || seqLess(m.next, s.seq+s.wireLen) {
				m.next = s.seq + s.wireLen
			}
			m.pendingBytes -= s.captured
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			progress = true
			break
		}
	}
}

// drain writes the closed prefix of the queue.
func (c *coalescer) drain() error {
	n := 0
	for n < len(c.queue) && !c.queue[n].isOpen {
		if err := c.out(&c.queue[n].pkt); err != nil {
			return err
		}
		c.queue[n] = nil
		n++
	}
	c.queue = c.queue[n:]
	return nil
}

func (c *coalescer) finish() error {
	for _, s := range c.queue {
		c.close(s)
	}
	return c.drain()
}

// keying is what a benchmark seed changes about a fixture: the key of the
// client-address anonymisation (a mask XORed onto every client address, which
// like the paper's prefix-preserving scheme keeps distinct clients distinct
// and common prefixes common) and where in the minute the capture clock
// starts. Flow and user hashes, and with them shard placement and map layout,
// and every window boundary move with the seed; what the trace says — sites,
// URLs, sizes, the number of packets, transactions and seconds — does not, so
// runs with different seeds measure the same amount of work.
type keying struct {
	mask  uint32
	shift int64 // ns, below one window width
}

func keyingFor(seed int64) keying {
	x := uint64(seed) + 0x9e3779b97f4a7c15 // splitmix64
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	return keying{mask: uint32(x >> 32), shift: int64(x % uint64(windowWidth))}
}

// apply rekeys one packet. The client is the endpoint on the ephemeral port;
// the simulated servers listen on 80 and 443.
func (k keying) apply(p *wire.Packet) {
	p.Time += k.shift
	switch {
	case p.DstPort < 1024 && p.SrcPort >= 1024:
		p.SrcIP ^= k.mask
	case p.SrcPort < 1024 && p.DstPort >= 1024:
		p.DstIP ^= k.mask
	}
}

// rewrite says how a generated, time-ordered trace becomes a fixture.
type rewrite struct {
	key      keying
	coalesce bool
}

// rewriteTrace reads the trace at inPath, rekeys it, coalesces it if asked,
// and writes the result to outPath. It returns the packets written.
func rewriteTrace(inPath, outPath string, rw rewrite) (out int, err error) {
	fin, err := os.Open(inPath)
	if err != nil {
		return 0, err
	}
	defer fin.Close()
	r, err := wire.NewReader(fin)
	if err != nil {
		return 0, err
	}
	fout, err := os.Create(outPath)
	if err != nil {
		return 0, err
	}
	defer fout.Close()
	w, err := wire.NewWriter(fout)
	if err != nil {
		return 0, err
	}
	add := w.Write
	var c *coalescer
	if rw.coalesce {
		c = &coalescer{out: w.Write, open: map[wire.FourTuple]*slot{}, mirrors: map[wire.FourTuple]*seqMirror{}, limits: wire.DefaultLimits()}
		add = c.add
	}
	for {
		p, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		rw.key.apply(p)
		if err := add(p); err != nil {
			return 0, err
		}
	}
	if c != nil {
		if err := c.finish(); err != nil {
			return 0, err
		}
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	return w.Count(), fout.Close()
}
