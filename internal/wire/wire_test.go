package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"trader/internal/event"
	"trader/internal/sim"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	dec := NewDecoder(&buf)
	ev := event.Event{Kind: event.Output, Name: "frame", Source: "video", At: 123}
	ev = ev.With("quality", 0.87)
	in := Message{Type: TypeOutput, SUO: "tv", Event: &ev, At: 123}
	if err := enc.Encode(in); err != nil {
		t.Fatal(err)
	}
	out, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != TypeOutput || out.SUO != "tv" || out.Event == nil {
		t.Fatalf("out = %+v", out)
	}
	if v, ok := out.Event.Get("quality"); !ok || v != 0.87 {
		t.Fatalf("payload lost: %+v", out.Event)
	}
	if out.Event.Kind != event.Output || out.Event.At != 123 {
		t.Fatalf("event fields lost: %+v", out.Event)
	}
}

func TestMultipleFramesSequential(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for i := 0; i < 10; i++ {
		ev := event.Event{Name: "key", Seq: uint64(i)}
		if err := enc.Encode(Message{Type: TypeInput, Event: &ev}); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(&buf)
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
		t.Fatalf("want EOF at stream end, got %v", err)
	}
}

func TestDecodeTruncatedHeader(t *testing.T) {
	dec := NewDecoder(bytes.NewReader([]byte{0, 0}))
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("truncated header should read as EOF, got %v", err)
	}
}

func TestDecodeTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	buf.Write(hdr[:])
	buf.WriteString("short")
	dec := NewDecoder(&buf)
	if _, err := dec.Decode(); err == nil {
		t.Fatal("expected error for truncated payload")
	}
}

func TestDecodeOversizedFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	buf.Write(hdr[:])
	dec := NewDecoder(&buf)
	if _, err := dec.Decode(); err == nil || !strings.Contains(err.Error(), "too large") {
		t.Fatalf("want too-large error, got %v", err)
	}
}

func TestDecodeGarbageJSON(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 3)
	buf.Write(hdr[:])
	buf.WriteString("{{{")
	dec := NewDecoder(&buf)
	if _, err := dec.Decode(); err == nil {
		t.Fatal("expected unmarshal error")
	}
}

func TestErrorReportRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rep := ErrorReport{Detector: "comparator", Observable: "volume", Expected: 10, Actual: 3, Consecutive: 4, At: 99, Detail: "drift"}
	if err := NewEncoder(&buf).Encode(Message{Type: TypeError, Error: &rep}); err != nil {
		t.Fatal(err)
	}
	m, err := NewDecoder(&buf).Decode()
	if err != nil {
		t.Fatal(err)
	}
	if m.Error == nil || *m.Error != rep {
		t.Fatalf("error report mangled: %+v", m.Error)
	}
	if !strings.Contains(rep.String(), "comparator") {
		t.Fatal("String() should mention detector")
	}
}

func TestConnOverPipe(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ev := event.Event{Kind: event.Input, Name: "key", At: 5}
		if err := ca.SendEvent("tv", ev); err != nil {
			t.Errorf("SendEvent: %v", err)
		}
	}()
	m, err := cb.Decode()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if m.Type != TypeInput || m.SUO != "tv" || m.Event.Name != "key" {
		t.Fatalf("m = %+v", m)
	}
}

func TestSendEventKindMapping(t *testing.T) {
	var buf bytes.Buffer
	c := &Conn{Encoder: NewEncoder(&buf), Decoder: NewDecoder(&buf)}
	cases := map[event.Kind]MsgType{
		event.Input:  TypeInput,
		event.Output: TypeOutput,
		event.State:  TypeState,
	}
	for k, want := range cases {
		if err := c.SendEvent("s", event.Event{Kind: k}); err != nil {
			t.Fatal(err)
		}
		m, err := c.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if m.Type != want {
			t.Fatalf("kind %v framed as %v, want %v", k, m.Type, want)
		}
	}
	if err := c.SendEvent("s", event.Event{Kind: event.Err}); err == nil {
		t.Fatal("Err kind should not be framable as an observation")
	}
}

func TestConcurrentEncode(t *testing.T) {
	a, b := net.Pipe()
	enc := NewEncoder(a)
	dec := NewDecoder(b)
	const n = 50
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ev := event.Event{Name: "e", Seq: uint64(i)}
			_ = enc.Encode(Message{Type: TypeInput, Event: &ev})
		}(i)
	}
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		m, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if seen[m.Event.Seq] {
			t.Fatalf("duplicate seq %d — frames interleaved", m.Event.Seq)
		}
		seen[m.Event.Seq] = true
	}
	wg.Wait()
	a.Close()
	b.Close()
}

// Property: any event survives an encode/decode cycle bit-exactly.
func TestPropertyEventRoundTrip(t *testing.T) {
	f := func(name, source string, at int64, vals []float64, kindRaw uint8) bool {
		ev := event.Event{
			Kind: event.Kind(kindRaw % 3), Name: name, Source: source,
			At: sim.Time(at),
		}
		for i, v := range vals {
			if len(ev.Values) > 8 {
				break
			}
			ev.Values = append(ev.Values, event.Value{Name: string(rune('a' + i%26)), V: v})
		}
		var buf bytes.Buffer
		if err := NewEncoder(&buf).Encode(Message{Type: TypeInput, Event: &ev}); err != nil {
			return false
		}
		m, err := NewDecoder(&buf).Decode()
		if err != nil || m.Event == nil {
			return false
		}
		got := *m.Event
		if got.Kind != ev.Kind || got.Name != ev.Name || got.Source != ev.Source || got.At != ev.At {
			return false
		}
		if len(got.Values) != len(ev.Values) {
			return false
		}
		for i := range got.Values {
			if got.Values[i] != ev.Values[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// One outlier frame must not pin MaxFrame-sized storage for the
// connection's lifetime: both codec ends release their buffer past
// bufRetain (the decoder matters most — its frame sizes are peer-chosen).
func TestOutlierFrameBufferReleased(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	big := Message{Type: TypeError, Error: &ErrorReport{Detail: strings.Repeat("x", 4*bufRetain)}}
	if err := enc.Encode(big); err != nil {
		t.Fatal(err)
	}
	if cap(enc.buf) > bufRetain {
		t.Fatalf("encoder retained %d bytes after an outlier frame, cap is %d", cap(enc.buf), bufRetain)
	}
	// Steady-state small frames keep their storage between Encodes.
	small := Message{Type: TypeHeartbeat, At: 7}
	if err := enc.Encode(small); err != nil {
		t.Fatal(err)
	}
	before := cap(enc.buf)
	if err := enc.Encode(small); err != nil {
		t.Fatal(err)
	}
	if before == 0 || cap(enc.buf) != before {
		t.Fatalf("small-frame buffer not reused: cap %d -> %d", before, cap(enc.buf))
	}
	// Everything written stays decodable, and the decoder drops its own
	// storage after the outlier while reusing it for the small frames.
	dec := NewDecoder(&buf)
	for i, want := range []MsgType{TypeError, TypeHeartbeat, TypeHeartbeat} {
		m, err := dec.Decode()
		if err != nil || m.Type != want {
			t.Fatalf("frame %d: got %q, %v; want %q", i, m.Type, err, want)
		}
		if cap(dec.buf) > bufRetain {
			t.Fatalf("frame %d: decoder retained %d bytes, cap is %d", i, cap(dec.buf), bufRetain)
		}
	}
}

// A server that refuses a client pre-registration answers the handshake
// itself with an error frame, so HandshakeFlow (and Dial) fails synchronously
// with the reason instead of reporting success for a doomed connection.
func TestRejectHelloFailsClientHandshake(t *testing.T) {
	cend, send := net.Pipe()
	defer cend.Close()
	defer send.Close()
	server := NewConn(send)
	go func() {
		hello, err := server.ReadHello()
		if err != nil {
			return
		}
		_ = server.RejectHello(hello.SUO, "fleet is full")
		send.Close()
	}()
	client := NewConn(cend)
	_, _, _, err := client.HandshakeFlow("tv-1", CodecBinary, "")
	if err == nil {
		t.Fatal("HandshakeFlow should fail on a rejection reply")
	}
	if !strings.Contains(err.Error(), "fleet is full") {
		t.Fatalf("HandshakeFlow error = %v, want the server's detail", err)
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	ev := event.Event{Kind: event.Output, Name: "frame", Source: "video", At: 123}
	ev = ev.With("q", 0.9).With("fps", 50)
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	dec := NewDecoder(&buf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		_ = enc.Encode(Message{Type: TypeOutput, Event: &ev})
		_, _ = dec.Decode()
	}
}
