package proc

// frameio_test.go pins two frame-I/O properties: the hot loop
// allocates O(1) per frame regardless of payload size (pooled
// assembly/receive buffers, stack header scratch), and the configurable
// frame-size cap rejects oversized payloads with a typed error on both
// the encode and decode side, handshakes included.

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"optiflow/internal/cluster/proc/wire"
)

// bigFetchResp builds a raw-encodable payload big enough that any
// per-element allocation would dominate the counters.
func bigFetchResp(n int) FetchResp {
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = uint64(i % 7)
	}
	return FetchResp{Parts: []PartState{{Part: 0, Vals: vs}}}
}

// TestFrameEncodeAllocs pins the regression the pooled assembly buffer
// fixed: encoding a 4096-vertex raw frame must not allocate per vertex
// (or per frame, once the pool is warm).
func TestFrameEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc ceilings are meaningless under the race detector")
	}
	msg := bigFetchResp(4096)
	var sink bytes.Buffer
	sink.Grow(1 << 20)
	writeFrame(&sink, 1, msg, wire.MaxFrame) // warm the pool
	allocs := testing.AllocsPerRun(50, func() {
		sink.Reset()
		if err := writeFrame(&sink, 1, msg, wire.MaxFrame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("raw frame encode: %.1f allocs/op, want <= 2 (pooled buffer regression)", allocs)
	}
}

// TestFrameDecodeAllocs pins the arena property: decoding a
// 4096-vertex raw frame costs a handful of allocations (arena, section
// bookkeeping, boxing), not one per vertex.
func TestFrameDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc ceilings are meaningless under the race detector")
	}
	frame, err := appendFrame(nil, 1, bigFetchResp(4096), wire.MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(frame)
	readFrame(r, wire.MaxFrame) // warm the pool
	allocs := testing.AllocsPerRun(50, func() {
		r.Reset(frame)
		if _, _, err := readFrame(r, wire.MaxFrame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Errorf("raw frame decode: %.1f allocs/op, want <= 16 (arena regression)", allocs)
	}
}

// TestMaxFrameEncodeCap pins the configurable cap on the encode side:
// a payload one byte over the limit fails with a typed *wire.SizeError
// (so a caller can distinguish policy from transport), the exact
// boundary passes, and a failed encode leaves dst untouched.
func TestMaxFrameEncodeCap(t *testing.T) {
	msg := bigFetchResp(100)
	exact, err := appendFrame(nil, 1, msg, wire.MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	payload := len(exact) - 4 // minus the length prefix

	if _, err := appendFrame(nil, 1, msg, payload); err != nil {
		t.Errorf("payload exactly at the cap rejected: %v", err)
	}
	dst := []byte("prefix")
	got, err := appendFrame(dst, 1, msg, payload-1)
	var se *wire.SizeError
	if !errors.As(err, &se) {
		t.Fatalf("oversized encode: err = %v, want *wire.SizeError", err)
	}
	if se.Size != payload || se.Limit != payload-1 {
		t.Errorf("SizeError = %+v, want Size=%d Limit=%d", se, payload, payload-1)
	}
	if string(got) != "prefix" {
		t.Errorf("failed encode left %d stray bytes in dst", len(got)-len(dst))
	}
}

// TestMaxFrameDecodeCap pins the cap on the decode side: a frame legal
// under the sender's policy but over the receiver's limit is rejected
// before its payload is read, with the same typed error.
func TestMaxFrameDecodeCap(t *testing.T) {
	frame, err := appendFrame(nil, 1, bigFetchResp(100), wire.MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	payload := len(frame) - 4

	if _, _, err := readFrame(bytes.NewReader(frame), payload); err != nil {
		t.Errorf("frame exactly at the cap rejected: %v", err)
	}
	_, _, err = readFrame(bytes.NewReader(frame), payload-1)
	var se *wire.SizeError
	if !errors.As(err, &se) {
		t.Fatalf("oversized decode: err = %v, want *wire.SizeError", err)
	}
	if se.Size != payload || se.Limit != payload-1 {
		t.Errorf("SizeError = %+v, want Size=%d Limit=%d", se, payload, payload-1)
	}
}

// TestHandshakeFrameCap pins the configured cap on the handshake
// paths, which run before any role is known: an oversized Hello fails
// the worker's encode with *wire.SizeError, the coordinator drops one
// unanswered instead of reading it, and an oversized handshake reply
// fails the worker's read with *wire.SizeError.
func TestHandshakeFrameCap(t *testing.T) {
	const limit = 1024
	big := strings.Repeat("t", 2*limit)
	var se *wire.SizeError

	wcfg := WorkerConfig{Addr: "127.0.0.1:1", Token: big, HandshakeTimeout: 5 * time.Second, MaxFrameBytes: limit}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	wcfg.Addr = ln.Addr().String()
	if _, err := dialHandshake(wcfg, ConnCtrl); !errors.As(err, &se) {
		t.Errorf("worker sending an oversized Hello: err = %v, want *wire.SizeError", err)
	}

	// A fake coordinator answers any Hello with an oversized rejection.
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			if _, _, err := readFrame(nc, wire.MaxFrame); err == nil {
				writeFrame(nc, 0, ErrResp{Msg: big}, wire.MaxFrame)
			}
			nc.Close()
		}
	}()
	wcfg.Token = "tok"
	if _, err := dialHandshake(wcfg, ConnCtrl); !errors.As(err, &se) {
		t.Errorf("worker reading an oversized reply: err = %v, want *wire.SizeError", err)
	}

	co := startTestCluster(t, 1, 1, func(c *Config) { c.MaxFrameBytes = limit })
	hello := func(token string) (any, error) {
		nc, err := net.Dial("tcp", co.Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(5 * time.Second))
		if err := writeFrame(nc, 0, Hello{Proto: ProtoVersion, Token: token, Conn: ConnCtrl}, wire.MaxFrame); err != nil {
			t.Fatalf("writing hello: %v", err)
		}
		_, m, err := readFrame(nc, wire.MaxFrame)
		return m, err
	}
	if m, err := hello("wrong-token"); err != nil {
		t.Fatalf("in-cap bad-token Hello: err = %v, want a rejection frame", err)
	} else if _, ok := m.(ErrResp); !ok {
		t.Fatalf("in-cap bad-token Hello answered with %#v, want ErrResp", m)
	}
	if m, err := hello(big); err == nil {
		t.Errorf("oversized Hello was read and answered with %#v; the coordinator ignores its cap", m)
	}
}
