package swarm

import (
	"context"
	"encoding/gob"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Peer wire messages. Each connection starts with a hello carrying the
// sender's bitfield; afterwards peers exchange have-announcements, chunk
// requests, and chunks.
type peerMsg struct {
	Kind  byte // 'H' hello, 'A' have, 'R' request, 'P' piece
	Index int
	Bits  []bool
	Data  []byte
}

// Peer participates in one swarm: serving chunks it holds and (if started
// via Fetch) downloading the rest.
type Peer struct {
	m     Manifest
	id    [32]byte
	st    *store
	ln    net.Listener
	rng   *rand.Rand
	close sync.Once
	done  chan struct{}
	// wake is signaled (capacity 1, collapsing) whenever something that
	// could unblock the download loop happens: a new connection, a peer's
	// bitfield growing, a chunk arriving. The loop blocks on it instead of
	// busy-rescanning when nothing is requestable.
	wake chan struct{}
	// idleHook, when set, is called once per download-loop pass that found
	// nothing requestable (test instrumentation for the no-busy-spin
	// contract).
	idleHook func()

	mu    sync.Mutex
	conns map[string]*peerConn
}

// wakeDownload nudges the download loop; a pending nudge is enough.
func (p *Peer) wakeDownload() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

type peerConn struct {
	addr string
	enc  *gob.Encoder
	encM sync.Mutex
	bits []bool
	bitM sync.Mutex
	// piece delivers received chunks to the download loop.
	piece chan peerMsg
	conn  net.Conn
}

func (pc *peerConn) send(m *peerMsg) error {
	pc.encM.Lock()
	defer pc.encM.Unlock()
	return pc.enc.Encode(m)
}

func (pc *peerConn) peerHas(i int) bool {
	pc.bitM.Lock()
	defer pc.bitM.Unlock()
	return i < len(pc.bits) && pc.bits[i]
}

func (pc *peerConn) bitsCopy() []bool {
	pc.bitM.Lock()
	defer pc.bitM.Unlock()
	return append([]bool(nil), pc.bits...)
}

// StartSeed serves data for m until Close. It registers with the tracker.
func StartSeed(trackerAddr string, m Manifest, data []byte) (*Peer, error) {
	if err := m.Verify(data); err != nil {
		return nil, fmt.Errorf("swarm: seed data does not match manifest: %w", err)
	}
	p, err := newPeer(m, newSeedStore(&m, data))
	if err != nil {
		return nil, err
	}
	if _, err := announce(trackerAddr, p.id, p.Addr()); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

func newPeer(m Manifest, st *store) (*Peer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Peer{
		m:     m,
		id:    m.ID(),
		st:    st,
		ln:    ln,
		rng:   rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(ln.Addr().(*net.TCPAddr).Port))),
		done:  make(chan struct{}),
		wake:  make(chan struct{}, 1),
		conns: make(map[string]*peerConn),
	}
	go p.accept()
	return p, nil
}

// Addr returns the peer's listen address.
func (p *Peer) Addr() string { return p.ln.Addr().String() }

// Close leaves the swarm.
func (p *Peer) Close() error {
	p.close.Do(func() {
		close(p.done)
		p.ln.Close()
		p.mu.Lock()
		for _, c := range p.conns {
			c.conn.Close()
		}
		p.mu.Unlock()
	})
	return nil
}

// Bytes returns the assembled file; valid once complete.
func (p *Peer) Bytes() []byte { return p.st.bytes() }

func (p *Peer) accept() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			select {
			case <-p.done:
				return
			default:
				continue
			}
		}
		go p.runConn(conn, conn.RemoteAddr().String())
	}
}

// connectTo dials a peer and runs the connection; no-op if already
// connected.
func (p *Peer) connectTo(ctx context.Context, addr string) {
	p.mu.Lock()
	_, dup := p.conns[addr]
	p.mu.Unlock()
	if dup || addr == p.Addr() {
		return
	}
	conn, err := dialContext(ctx, addr)
	if err != nil {
		return
	}
	go p.runConn(conn, addr)
}

// runConn speaks the peer protocol on one connection until it breaks.
func (p *Peer) runConn(conn net.Conn, addr string) {
	defer conn.Close()
	pc := &peerConn{
		addr:  addr,
		enc:   gob.NewEncoder(conn),
		piece: make(chan peerMsg, 4),
		conn:  conn,
	}
	if err := pc.send(&peerMsg{Kind: 'H', Bits: p.st.bitfield()}); err != nil {
		return
	}
	p.mu.Lock()
	if _, dup := p.conns[addr]; dup {
		p.mu.Unlock()
		return
	}
	p.conns[addr] = pc
	p.mu.Unlock()
	p.wakeDownload()
	defer func() {
		p.mu.Lock()
		delete(p.conns, addr)
		p.mu.Unlock()
	}()

	dec := gob.NewDecoder(conn)
	for {
		var m peerMsg
		if err := dec.Decode(&m); err != nil {
			return
		}
		switch m.Kind {
		case 'H':
			pc.bitM.Lock()
			pc.bits = m.Bits
			pc.bitM.Unlock()
			p.wakeDownload()
		case 'A':
			pc.bitM.Lock()
			for len(pc.bits) <= m.Index {
				pc.bits = append(pc.bits, false)
			}
			if m.Index >= 0 {
				pc.bits[m.Index] = true
			}
			pc.bitM.Unlock()
			p.wakeDownload()
		case 'R':
			data := p.st.get(m.Index)
			if data == nil {
				continue
			}
			if err := pc.send(&peerMsg{Kind: 'P', Index: m.Index, Data: data}); err != nil {
				return
			}
		case 'P':
			select {
			case pc.piece <- m:
			default: // downloader gone or slow; drop
			}
		}
	}
}

// broadcastHave tells every connection about a new chunk.
func (p *Peer) broadcastHave(idx int) {
	p.mu.Lock()
	conns := make([]*peerConn, 0, len(p.conns))
	for _, c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		c.send(&peerMsg{Kind: 'A', Index: idx}) //nolint:errcheck // broken conns clean up in runConn
	}
}

// Fetch joins the swarm for m via the tracker, downloads all chunks
// (rarest-first, serving others while downloading), and returns the
// verified file. The peer leaves once complete.
func Fetch(ctx context.Context, trackerAddr string, m Manifest) ([]byte, error) {
	p, err := newPeer(m, newStore(&m))
	if err != nil {
		return nil, err
	}
	defer p.Close()
	if err := p.download(ctx, trackerAddr); err != nil {
		return nil, err
	}
	data := p.Bytes()
	if err := m.Verify(data); err != nil {
		return nil, err
	}
	return data, nil
}

// Stall pacing for the download loop: when nothing is requestable the
// loop re-announces to the tracker at most every downloadRefreshEvery and
// then *blocks* — on the wake channel (a new connection, bitfield growth,
// or an arriving chunk ends the stall instantly) with downloadIdleWait as
// the tracker-repoll backstop — instead of spinning through the scan.
const (
	downloadRefreshEvery = 50 * time.Millisecond
	downloadIdleWait     = 100 * time.Millisecond
)

func (p *Peer) download(ctx context.Context, trackerAddr string) error {
	refresh := func() {
		peers, err := announce(trackerAddr, p.id, p.Addr())
		if err != nil {
			return
		}
		for _, addr := range peers {
			p.connectTo(ctx, addr)
		}
	}
	refresh()
	lastRefresh := time.Now()
	// stall blocks until something changes (or the backstop timer fires);
	// it returns a non-nil error only when the download should abort.
	stall := func() error {
		if time.Since(lastRefresh) > downloadRefreshEvery {
			refresh()
			lastRefresh = time.Now()
		}
		if p.idleHook != nil {
			p.idleHook()
		}
		t := time.NewTimer(downloadIdleWait)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-p.done:
			return errClosed
		case <-p.wake:
		case <-t.C:
		}
		return nil
	}
	for !p.st.complete() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-p.done:
			return errClosed
		default:
		}
		// Snapshot connections and their bitfields.
		p.mu.Lock()
		conns := make([]*peerConn, 0, len(p.conns))
		for _, c := range p.conns {
			conns = append(conns, c)
		}
		p.mu.Unlock()
		bitfields := make([][]bool, len(conns))
		for i, c := range conns {
			bitfields[i] = c.bitsCopy()
		}
		idx := pickRarest(p.st.bitfield(), bitfields, p.rng)
		if idx < 0 {
			// No connected peer has anything we need: wait for one.
			if err := stall(); err != nil {
				return err
			}
			continue
		}
		// Ask a random holder.
		holders := conns[:0:0]
		for _, c := range conns {
			if c.peerHas(idx) {
				holders = append(holders, c)
			}
		}
		if len(holders) == 0 {
			// The holder vanished between the snapshot and the re-check;
			// wait for the connection set to change rather than re-scanning
			// in a hot loop.
			if err := stall(); err != nil {
				return err
			}
			continue
		}
		c := holders[p.rng.Intn(len(holders))]
		if err := c.send(&peerMsg{Kind: 'R', Index: idx}); err != nil {
			// A conn whose send fails is dead but may linger until its
			// reader notices; close it now and pause so a half-closed
			// socket cannot turn the request loop into a spin.
			c.conn.Close()
			if err := stall(); err != nil {
				return err
			}
			continue
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case m := <-c.piece:
			if m.Index != idx {
				// Out-of-order piece from a pipelined request; store it
				// anyway.
			}
			if fresh, err := p.st.put(m.Index, m.Data); err == nil && fresh {
				p.broadcastHave(m.Index)
			}
		case <-time.After(2 * time.Second):
			// Peer unresponsive; drop it and re-announce.
			c.conn.Close()
			refresh()
			lastRefresh = time.Now()
		}
	}
	return nil
}
