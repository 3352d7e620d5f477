package wire

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"trader/internal/event"
	"trader/internal/sim"
)

// sampleMessages covers every frame shape the protocol produces.
func sampleMessages() []Message {
	ev := event.Event{Kind: event.Output, Name: "frame", Source: "video", At: 123, Seq: 7}
	ev = ev.With("quality", 0.87).With("fps", 50)
	rep := ErrorReport{Detector: "comparator", Observable: "volume", Expected: 10,
		Actual: 3, Consecutive: 4, At: 99, Detail: "drift"}
	snap := Snapshot{Blocks: 130, Events: 12, Dropped: 3, Windows: []SpectrumWindow{
		{Seq: 1, At: 100, Words: []uint64{0x1, 0xffffffffffffffff, 0x3}},
		{Seq: 2, At: 200, Words: []uint64{0, 0x80, 0}},
		{Seq: 3}, // open window, no coverage yet
	}}
	return []Message{
		{Type: TypeHello, SUO: "tv-0001", Codec: CodecBinary},
		{Type: TypeInput, SUO: "tv", Event: &event.Event{Kind: event.Input, Name: "key", At: -5}, At: -5},
		{Type: TypeOutput, SUO: "tv", Event: &ev, At: 123},
		{Type: TypeState, Event: &event.Event{Kind: event.State, Name: "mode"}},
		{Type: TypeControl, Control: CtrlRecover, Target: "teletext", At: 42},
		{Type: TypeControl, SUO: "tv", Control: CtrlQuarantine, Target: "quarantine", At: 7},
		{Type: TypeError, Error: &rep, At: 99},
		{Type: TypeHeartbeat, At: 1000},
		{Type: TypeSpecInfo},
		Ack("tv-0001", CtrlRestart, 1234),
		{Type: TypeSnapshotReq, SUO: "tv-0001", At: 500},
		{Type: TypeSnapshot, SUO: "tv-0001", At: 600, Snapshot: &snap},
		{Type: TypeSnapshot, SUO: "tv-0001", Target: "fail", At: 700,
			Snapshot: &Snapshot{Blocks: 64, Windows: []SpectrumWindow{{Seq: 9, At: 650, Words: []uint64{42}}}}},
		{Type: TypeHello, SUO: "tv-0001", Codec: CodecBinary, Durability: DurDispatch, Credits: 256},
		{Type: TypeCredit, SUO: "tv-0001", Credits: 128},
		{Type: TypeHeartbeat, SUO: "tv-0001", At: 2000, Credits: 64},
		{Type: TypeShed, SUO: "tv-0001", At: 2100, Shed: &ShedRecord{Observations: 17, Heartbeats: 2}},
		{Type: TypeShed, SUO: "tv-0001", Shed: &ShedRecord{}},
		{Type: TypeHello, SUO: "edge-0", Codec: CodecBinary, Role: RoleEdge,
			Handoff: &HandoffRecord{From: "edge-0", Range: 0, Of: 2, Dir: "/tmp/edge0"}},
		{Type: TypeRollup, SUO: "edge-0", Rollup: &RollupDelta{Seq: 3, Devices: 16,
			Counters: []RollupCounter{{Name: "dispatched", V: 120}, {Name: "comparisons", V: -7}}}},
		{Type: TypeRollup, SUO: "edge-1", Rollup: &RollupDelta{}}, // empty resume baseline
		{Type: TypeHandoff, SUO: "dev-000007", At: 910,
			Handoff: &HandoffRecord{From: "edge-0", To: "edge-1", Pos: 4321},
			Checkpoint: &Checkpoint{Plane: PlaneDevice, At: 910,
				Counters: []CheckpointCounter{{Name: "comparisons", V: 12}}}},
		{Type: TypeHandoff, SUO: "dev-000007", Handoff: &HandoffRecord{From: "edge-0", Out: true}},
		{Type: TypeSpectrumDelta, SUO: "tv-0001", At: 3000, Delta: &SpectrumDelta{
			Seq: 12, Blocks: 130, Index: []uint32{0, 1, 2}, Words: []uint64{0x1, 0xffffffffffffffff, 0x3}}},
		{Type: TypeSpectrumDelta, SUO: "tv-0001", Target: "fail", At: 3100,
			Delta: &SpectrumDelta{Seq: 13, Blocks: 130}}, // empty closed window
		{Type: TypeControl, SUO: "tv-0001", Control: CtrlRestart, Target: "restart", At: 5000,
			Trace: &TraceContext{TraceID: 0xdeadbeefcafe0123, Parent: 7}},
		{Type: TypeRollup, SUO: "edge-0", Rollup: &RollupDelta{Seq: 4, Devices: 16},
			Trace: &TraceContext{TraceID: 1}}, // exemplar trace, no parent
		{Type: TypeAck, SUO: "tv-0001", Control: CtrlRestart, At: 5100,
			Trace: &TraceContext{TraceID: 0xdeadbeefcafe0123, Parent: 9}}, // device echo of control trace
		{Type: TypeCheckpoint, At: 4000, Checkpoint: &Checkpoint{Plane: "diagnosis", At: 4000,
			Counters: []CheckpointCounter{{Name: "nfail", V: 2}},
			Parts: []CheckpointPart{
				{ID: "tv-0001", NFail: 2, NPass: 1, Cells: []CheckpointCell{{Block: 7, Fail: 2, Pass: 1}, {Block: 64, Fail: 1}}},
				{ID: "tv-0002"}, // partition with no evidence yet
			}}},
	}
}

func TestCodecsRoundTripAllShapes(t *testing.T) {
	for _, codec := range []Codec{JSON, Binary} {
		for _, in := range sampleMessages() {
			payload, err := codec.Append(nil, in)
			if err != nil {
				t.Fatalf("%s: append %+v: %v", codec.Name(), in, err)
			}
			var out Message
			if err := codec.Unmarshal(payload, &out); err != nil {
				t.Fatalf("%s: unmarshal %+v: %v", codec.Name(), in, err)
			}
			if !reflect.DeepEqual(in, out) {
				t.Errorf("%s: round trip mangled:\n in: %+v\nout: %+v", codec.Name(), in, out)
			}
		}
	}
}

// Property: both codecs agree on arbitrary event frames, bit-exactly.
func TestPropertyCodecsAgree(t *testing.T) {
	f := func(suo, name, source string, at int64, vals []float64, kindRaw, seq uint8) bool {
		ev := event.Event{Kind: event.Kind(kindRaw % 3), Name: name, Source: source,
			At: sim.Time(at), Seq: uint64(seq)}
		for i, v := range vals {
			if i > 8 {
				break
			}
			ev.Values = append(ev.Values, event.Value{Name: string(rune('a' + i%26)), V: v})
		}
		in := Message{Type: TypeOutput, SUO: suo, Event: &ev, At: sim.Time(at)}
		var outs [2]Message
		for i, codec := range []Codec{JSON, Binary} {
			payload, err := codec.Append(nil, in)
			if err != nil {
				return false
			}
			if err := codec.Unmarshal(payload, &outs[i]); err != nil {
				return false
			}
		}
		return reflect.DeepEqual(outs[0], outs[1]) && reflect.DeepEqual(outs[0], in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: binary Unmarshal never panics on arbitrary payloads — it errors
// or yields a message, exactly like the JSON decoder on garbage.
func TestPropertyBinaryUnmarshalRobustOnGarbage(t *testing.T) {
	f := func(raw []byte) bool {
		var m Message
		_ = Binary.Unmarshal(raw, &m)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryRejectsTrailingBytes(t *testing.T) {
	payload, err := Binary.Append(nil, Message{Type: TypeHeartbeat})
	if err != nil {
		t.Fatal(err)
	}
	var m Message
	if err := Binary.Unmarshal(append(payload, 0xFF), &m); err == nil {
		t.Fatal("trailing bytes should be rejected")
	}
}

func TestBinaryRejectsHostileValueCount(t *testing.T) {
	// An event frame claiming 2^40 values must be rejected before any
	// allocation happens (the payload cannot possibly hold them).
	ev := event.Event{Name: "e"}
	payload, err := Binary.Append(nil, Message{Type: TypeInput, Event: &ev})
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the trailing value-count uvarint (0 → huge).
	payload = append(payload[:len(payload)-1], 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)
	var m Message
	if err := Binary.Unmarshal(payload, &m); err == nil {
		t.Fatal("hostile value count should be rejected")
	}
}

func TestBinaryRejectsHostileSnapshotCounts(t *testing.T) {
	// A snapshot frame claiming 2^40 windows (or words) must be rejected
	// before any allocation happens.
	base := Message{Type: TypeSnapshot, SUO: "s", Snapshot: &Snapshot{Blocks: 64}}
	payload, err := Binary.Append(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the trailing window-count uvarint (0 → huge).
	hostile := append(payload[:len(payload)-1:len(payload)-1], 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)
	var m Message
	if err := Binary.Unmarshal(hostile, &m); err == nil {
		t.Fatal("hostile window count should be rejected")
	}
	withWin := Message{Type: TypeSnapshot, SUO: "s",
		Snapshot: &Snapshot{Blocks: 64, Windows: []SpectrumWindow{{Seq: 1, At: 2}}}}
	payload, err = Binary.Append(nil, withWin)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the trailing word-count uvarint (0 → huge).
	hostile = append(payload[:len(payload)-1:len(payload)-1], 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)
	if err := Binary.Unmarshal(hostile, &m); err == nil {
		t.Fatal("hostile word count should be rejected")
	}
}

func TestCodecByName(t *testing.T) {
	cases := []struct {
		name   string
		want   string
		wantOK bool
	}{
		{"json", CodecJSON, true},
		{"binary", CodecBinary, true},
		{"", CodecJSON, false},
		{"protobuf", CodecJSON, false},
	}
	for _, c := range cases {
		got, ok := CodecByName(c.name)
		if got.Name() != c.want || ok != c.wantOK {
			t.Errorf("CodecByName(%q) = %s, %v; want %s, %v", c.name, got.Name(), ok, c.want, c.wantOK)
		}
	}
}

// handshakePair runs a client handshake against a server AcceptHello over a
// pipe and returns both ends plus the negotiated server-side state.
func handshakePair(t *testing.T, suo, requested string) (client, server *Conn, hello Message, accepted Codec) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	client, server = NewConn(a), NewConn(b)
	done := make(chan error, 1)
	go func() {
		var err error
		hello, accepted, err = server.AcceptHello()
		done <- err
	}()
	if _, _, _, err := client.HandshakeFlow(suo, requested, ""); err != nil {
		t.Fatalf("HandshakeFlow: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("AcceptHello: %v", err)
	}
	return client, server, hello, accepted
}

func TestHandshakeNegotiatesBinary(t *testing.T) {
	client, server, hello, accepted := handshakePair(t, "tv-42", CodecBinary)
	if hello.SUO != "tv-42" || hello.Codec != CodecBinary {
		t.Fatalf("hello = %+v", hello)
	}
	if accepted.Name() != CodecBinary {
		t.Fatalf("accepted codec = %s, want binary", accepted.Name())
	}
	// Post-handshake traffic flows in the negotiated codec, both directions.
	ev := event.Event{Kind: event.Input, Name: "key", At: 9}
	go func() { _ = client.SendEvent("tv-42", ev) }()
	m, err := server.Decode()
	if err != nil || m.Type != TypeInput || m.Event.Name != "key" {
		t.Fatalf("server decode: %+v, %v", m, err)
	}
	go func() { _ = server.Encode(Message{Type: TypeControl, Control: CtrlReset}) }()
	m, err = client.Decode()
	if err != nil || m.Type != TypeControl || m.Control != CtrlReset {
		t.Fatalf("client decode: %+v, %v", m, err)
	}
}

func TestHandshakeUnknownCodecFallsBackToJSON(t *testing.T) {
	client, _, _, accepted := handshakePair(t, "tv", "msgpack")
	if accepted.Name() != CodecJSON {
		t.Fatalf("unknown codec accepted as %s, want json fallback", accepted.Name())
	}
	if client.Encoder.codec.Name() != CodecJSON {
		t.Fatalf("client switched to %s, want json", client.Encoder.codec.Name())
	}
}

// HandshakeEdge negotiates the edge role: the claim rides the Hello, the
// reply must echo RoleEdge, and the codec switch still happens.
func TestHandshakeEdge(t *testing.T) {
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	client, server := NewConn(a), NewConn(b)
	done := make(chan error, 1)
	var hello Message
	go func() {
		var err error
		hello, err = server.ReadHello()
		if err == nil {
			_, err = server.ReplyHello(hello)
		}
		done <- err
	}()
	claim := HandoffRecord{From: "edge-0", Range: 1, Of: 2, Dir: "/tmp/e0"}
	codec, err := client.HandshakeEdge("edge-0", CodecBinary, claim)
	if err != nil {
		t.Fatalf("HandshakeEdge: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("server side: %v", err)
	}
	if codec.Name() != CodecBinary {
		t.Fatalf("accepted codec = %s, want binary", codec.Name())
	}
	if hello.Role != RoleEdge || hello.Handoff == nil || *hello.Handoff != claim {
		t.Fatalf("server saw hello = %+v", hello)
	}
}

// A pre-federation server replies without echoing the role; the edge must
// refuse to treat it as an aggregator.
func TestHandshakeEdgeRejectsRolelessServer(t *testing.T) {
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	client, server := NewConn(a), NewConn(b)
	go func() {
		hello, err := server.ReadHello()
		if err == nil {
			hello.Role = "" // a server from before roles existed
			_, _ = server.ReplyHello(hello)
		}
	}()
	if _, err := client.HandshakeEdge("edge-0", CodecBinary, HandoffRecord{}); err == nil {
		t.Fatal("HandshakeEdge should fail when the reply lacks the edge role")
	}
}

func TestAcceptHelloRejectsNonHello(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	client, server := NewConn(a), NewConn(b)
	go func() { _ = client.Encode(Message{Type: TypeHeartbeat}) }()
	if _, _, err := server.AcceptHello(); err == nil {
		t.Fatal("AcceptHello should reject a non-hello first frame")
	}
}

// The decoder must reuse its payload buffer: steady-state binary decoding
// performs no buffer allocation, only the per-message copies (event struct,
// values, strings). The regression bound is deliberately loose for JSON and
// tight for binary.
func TestDecoderReusesPayloadBuffer(t *testing.T) {
	frame := func(codec Codec) []byte {
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		enc.SetCodec(codec)
		ev := event.Event{Kind: event.Output, Name: "frame", Source: "video", At: 123}
		ev = ev.With("q", 0.9).With("fps", 50)
		if err := enc.Encode(Message{Type: TypeOutput, SUO: "tv", Event: &ev, At: 123}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range []struct {
		codec Codec
		max   float64
	}{
		{Binary, 8}, // event, values, 4 strings, reader internals — no payload buffer
		{JSON, 32},  // encoding/json internals dominate, but still no payload buffer growth
	} {
		raw := frame(tc.codec)
		r := bytes.NewReader(raw)
		dec := NewDecoder(r)
		dec.SetCodec(tc.codec)
		avg := testing.AllocsPerRun(200, func() {
			r.Reset(raw)
			if _, err := dec.Decode(); err != nil {
				t.Fatal(err)
			}
		})
		if avg > tc.max {
			t.Errorf("%s: %.1f allocs/frame, want ≤ %.0f (payload buffer not reused?)", tc.codec.Name(), avg, tc.max)
		}
	}
}

func TestEncoderFrameTooLargeEitherCodec(t *testing.T) {
	big := strings.Repeat("x", MaxFrame)
	for _, codec := range []Codec{JSON, Binary} {
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		enc.SetCodec(codec)
		err := enc.Encode(Message{Type: TypeHello, SUO: big})
		if err == nil || !strings.Contains(err.Error(), "too large") {
			t.Errorf("%s: want too-large error, got %v", codec.Name(), err)
		}
	}
}

func TestBinaryConnStream(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.SetCodec(Binary)
	dec := NewDecoder(&buf)
	dec.SetCodec(Binary)
	for i := 0; i < 10; i++ {
		ev := event.Event{Name: "key", Seq: uint64(i)}
		if err := enc.Encode(Message{Type: TypeInput, Event: &ev}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		m, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if m.Event.Seq != uint64(i) {
			t.Fatalf("frame %d out of order: %+v", i, m)
		}
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestSplitAddr(t *testing.T) {
	cases := []struct {
		in, network, address string
		wantErr              bool
	}{
		{"unix:/tmp/t.sock", "unix", "/tmp/t.sock", false},
		{"tcp:127.0.0.1:7700", "tcp", "127.0.0.1:7700", false},
		{"/tmp/t.sock", "unix", "/tmp/t.sock", false},
		{"plainname", "unix", "plainname", false},
		{"udp:1.2.3.4:5", "", "", true},
	}
	for _, c := range cases {
		network, address, err := SplitAddr(c.in)
		if (err != nil) != c.wantErr || network != c.network || address != c.address {
			t.Errorf("SplitAddr(%q) = %q, %q, %v", c.in, network, address, err)
		}
	}
}
