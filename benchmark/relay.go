package main

import (
	"bytes"
	"encoding/json"
	"net"
	"sync"
	"time"

	"repro/internal/binstat"
	"repro/internal/fleet"
	"repro/internal/proto"
)

// relay sits between fleet workers and the coordinator on loopback. It
// forwards every length-prefixed dispatch frame unchanged and counts frames
// and bytes in each direction; it also reads the frame type to time
// handshakes and leases. Only the traced run uses it.
type relay struct {
	ln     net.Listener
	target string
	t      *tracer
	batch  int // span the frame and lease spans hang under

	wg sync.WaitGroup
	mu sync.Mutex

	framesUp, framesDown int
	bytesUp, bytesDown   int64
	handshakes           []float64 // ms from hello to welcome
	leases               map[string]*leaseTrace
}

// leaseTrace is one granted lease as the relay saw it.
type leaseTrace struct {
	Label    string
	External bool
	Start    time.Duration
	End      time.Duration
	Profile  binstat.Report
}

func startRelay(target string, t *tracer, batch int) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, target: target, t: t, batch: batch, leases: map[string]*leaseTrace{}}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

// close stops accepting and waits for every forwarding goroutine; the
// coordinator and workers close their ends when the batch drains.
func (r *relay) close() {
	r.ln.Close()
	r.wg.Wait()
}

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		in, err := r.ln.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", r.target)
		if err != nil {
			in.Close()
			continue
		}
		var hello time.Duration
		r.wg.Add(2)
		go func() {
			defer r.wg.Done()
			r.pump(in, out, true, &hello)
		}()
		go func() {
			defer r.wg.Done()
			r.pump(out, in, false, &hello)
		}()
	}
}

// frameHead is the part of a dispatch frame the relay reads.
type frameHead struct {
	Type     fleet.FrameType `json:"type"`
	Lease    *fleet.Lease    `json:"lease"`
	Complete *struct {
		Lease   string         `json:"lease"`
		Profile binstat.Report `json:"profile"`
	} `json:"complete"`
}

// peekType reads the frame type without decoding the frame: the dispatch
// encoder writes the type field first. Merge and progress frames carry
// snapshots, and decoding them all would slow the traced run for nothing.
func peekType(payload []byte) fleet.FrameType {
	const prefix = `{"type":"`
	if !bytes.HasPrefix(payload, []byte(prefix)) {
		return ""
	}
	rest := payload[len(prefix):]
	if i := bytes.IndexByte(rest, '"'); i >= 0 {
		return fleet.FrameType(rest[:i])
	}
	return ""
}

// pump copies frames from src to dst until either side closes. hello is the
// connection's hello time, shared by its two directions (written by the up
// pump before the down pump can see the welcome it answers).
func (r *relay) pump(src, dst net.Conn, up bool, hello *time.Duration) {
	defer dst.Close()
	defer src.Close()
	for {
		payload, err := proto.ReadRaw(src)
		if err != nil {
			return
		}
		start := r.t.now()
		if err := proto.WriteRaw(dst, payload); err != nil {
			return
		}
		r.t.timed("frame", "fleet", r.batch, start)
		h := frameHead{Type: peekType(payload)}
		switch h.Type {
		case fleet.FrameLease, fleet.FrameComplete:
			// Forwarded verbatim either way; a frame that does not decode
			// only goes uncounted as a lease.
			_ = json.Unmarshal(payload, &h)
		}
		now := r.t.now()
		r.mu.Lock()
		if up {
			r.framesUp++
			r.bytesUp += int64(len(payload)) + 4
		} else {
			r.framesDown++
			r.bytesDown += int64(len(payload)) + 4
		}
		switch h.Type {
		case fleet.FrameHello:
			*hello = start
		case fleet.FrameWelcome:
			r.handshakes = append(r.handshakes, durMS(now-*hello))
		case fleet.FrameLease:
			if h.Lease != nil && h.Lease.Status == fleet.LeaseGranted && h.Lease.Spec != nil {
				r.leases[h.Lease.ID] = &leaseTrace{
					Label:    h.Lease.Spec.DisplayLabel(),
					External: h.Lease.Spec.External != nil,
					Start:    now,
				}
			}
		case fleet.FrameComplete:
			if h.Complete != nil {
				if l := r.leases[h.Complete.Lease]; l != nil {
					l.End = now
					l.Profile = h.Complete.Profile
				}
			}
		}
		r.mu.Unlock()
	}
}
