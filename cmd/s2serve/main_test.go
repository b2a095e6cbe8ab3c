package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestStalledHeaderReadIsClosed checks the API server drops a client that
// opens a connection and never finishes its request headers.
func TestStalledHeaderReadIsClosed(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout ||
		readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Fatalf("timeouts: header %v idle %v", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	// Shorten the header deadline so the test does not wait the full
	// production timeout; the server otherwise is the one main serves.
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	defer srv.Close()

	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	// The server must close the connection (EOF, possibly after a 408
	// response) well before this read deadline.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	_, err = io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("stalled connection still open after %v", time.Since(start))
	}
}
