package wire

import (
	"fmt"
	"net"
	"strings"
)

// Address notation shared by the daemon and its clients: "unix:/path/to.sock"
// or "tcp:host:port". A bare path (contains "/" or no ":") is shorthand for
// a Unix socket, preserving the seed CLI's plain-path flags.

// SplitAddr parses the address notation into a net network and address.
func SplitAddr(addr string) (network, address string, err error) {
	switch {
	case strings.HasPrefix(addr, "unix:"):
		return "unix", addr[len("unix:"):], nil
	case strings.HasPrefix(addr, "tcp:"):
		return "tcp", addr[len("tcp:"):], nil
	case !strings.Contains(addr, ":") || strings.Contains(addr, "/"):
		return "unix", addr, nil
	default:
		return "", "", fmt.Errorf("wire: address %q: want unix:/path or tcp:host:port", addr)
	}
}

// Listen opens a listener for the address notation above.
func Listen(addr string) (net.Listener, error) {
	network, address, err := SplitAddr(addr)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen(network, address)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	return ln, nil
}

// Dial connects to the address notation above and performs the client-side
// Hello handshake (see HandshakeFlow), identifying as suo and requesting
// the named codec (empty for JSON) and durability class (empty for fsync).
// The returned connection speaks the accepted codec; the granted class and
// the initial frame-credit window (zero: no flow control) come with it.
func Dial(addr, suo, codec string, dur Durability) (*Conn, Durability, uint32, error) {
	network, address, err := SplitAddr(addr)
	if err != nil {
		return nil, "", 0, err
	}
	nc, err := net.Dial(network, address)
	if err != nil {
		return nil, "", 0, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	c := NewConn(nc)
	_, granted, credits, err := c.HandshakeFlow(suo, codec, dur)
	if err != nil {
		nc.Close()
		return nil, "", 0, err
	}
	return c, granted, credits, nil
}
