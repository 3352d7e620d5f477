package wire_test

import (
	"bytes"
	"fmt"

	"trader/internal/event"
	"trader/internal/wire"
)

// An observation frame survives an encode/decode round trip: this is the
// JSON-codec default every connection starts in.
func ExampleEncoder() {
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	dec := wire.NewDecoder(&buf)

	ev := event.Event{Kind: event.Output, Name: "frame", Source: "video", At: 123}
	ev = ev.With("quality", 0.87)
	if err := enc.Encode(wire.Message{Type: wire.TypeOutput, SUO: "tv", Event: &ev, At: 123}); err != nil {
		panic(err)
	}

	m, err := dec.Decode()
	if err != nil {
		panic(err)
	}
	q, _ := m.Event.Get("quality")
	fmt.Println(m.Type, m.SUO, m.Event.Name, q)
	// Output: output tv frame 0.87
}

// The compact binary codec is a drop-in replacement for JSON framing; real
// connections negotiate it in the Hello exchange (Conn.HandshakeFlow /
// Conn.AcceptHello) instead of setting it by hand.
func ExampleCodec() {
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	enc.SetCodec(wire.Binary)
	dec := wire.NewDecoder(&buf)
	dec.SetCodec(wire.Binary)

	rep := wire.ErrorReport{Detector: "comparator", Observable: "volume", Expected: 10, Actual: 3, Consecutive: 2}
	if err := enc.Encode(wire.Message{Type: wire.TypeError, Error: &rep}); err != nil {
		panic(err)
	}

	m, err := dec.Decode()
	if err != nil {
		panic(err)
	}
	fmt.Println(m.Type, m.Error.Detector, m.Error.Expected, m.Error.Actual)
	// Output: error comparator 10 3
}
