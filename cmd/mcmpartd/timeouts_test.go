package main

import (
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// TestDaemonDisconnectsHalfSentHeader: a client that opens a connection,
// sends half a request header and then nothing is cut off after
// readHeaderTimeout instead of holding the socket (and its goroutine) for
// as long as it likes — while the daemon keeps serving everyone else.
func TestDaemonDisconnectsHalfSentHeader(t *testing.T) {
	d := bootDaemonHandle(t, []string{"-addr", "127.0.0.1:0", "-mcm", "dev4"})
	conn, err := net.Dial("tcp", d.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sent := time.Now()
	if _, err := conn.Write([]byte("POST /v1/plan HTTP/1.1\r\nHost: mcmpartd\r\nContent-Le")); err != nil {
		t.Fatal(err)
	}
	// Whatever the server says on the way out (net/http answers a
	// truncated header with a 400), the connection must end — EOF or a
	// reset — by the server's doing, not by this test's own deadline.
	if err := conn.SetReadDeadline(sent.Add(readHeaderTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, conn); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled header still connected after %s", time.Since(sent))
	}
	if held := time.Since(sent); held < readHeaderTimeout/2 {
		t.Fatalf("connection dropped after %s, before the %s header timeout could have fired", held, readHeaderTimeout)
	}
	if err := d.Client.Health(t.Context()); err != nil {
		t.Fatalf("daemon unhealthy after dropping the stalled client: %v", err)
	}
}
