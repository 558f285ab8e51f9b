package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// hiddenLength hides a reader's concrete type from net/http, so the
// client cannot learn the body's length and sends it chunked.
type hiddenLength struct{ r io.Reader }

func (h hiddenLength) Read(p []byte) (int, error) { return h.r.Read(p) }

// TestUploadOverDeclaredLimitRefusedUnread: an upload whose declared
// Content-Length exceeds MaxBodyBytes gets 400 bad_input before a byte
// of it is read — its body stalls until the reply has arrived, so a
// handler that read the body first could not answer in time.
// The small declared length is under net/http's post-handler drain
// threshold: the reply must not wait for the server to drain the body.
func TestUploadOverDeclaredLimitRefusedUnread(t *testing.T) {
	for _, declared := range []int64{1 << 20, 65} {
		t.Run(fmt.Sprint(declared), func(t *testing.T) {
			leakCheck(t)
			const timeout = 200 * time.Millisecond
			_, ts := newTestServer(t, Config{MaxBodyBytes: 64, Timeout: timeout})
			// The body is released once the reply is in, or after 2s at
			// the latest, so a server that waits for it fails the test
			// instead of hanging it.
			release := make(chan time.Time)
			releaseBody := sync.OnceFunc(func() { close(release) })
			defer time.AfterFunc(2*time.Second, releaseBody).Stop()
			defer releaseBody()

			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/profile", &stalledBody{release: release})
			if err != nil {
				t.Fatal(err)
			}
			req.ContentLength = declared
			start := time.Now()
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("over-limit upload should yield a response, got %v", err)
			}
			elapsed := time.Since(start)
			out, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			releaseBody()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d after %v, want 400; body %s", resp.StatusCode, elapsed, out)
			}
			e := decodeError(t, out)
			if e.Class != "bad_input" || !strings.Contains(e.Error, "exceeds 64 bytes") {
				t.Fatalf("error %+v, want bad_input naming the 64-byte limit", e)
			}
			if elapsed >= timeout/2 {
				t.Fatalf("refusal took %v, want well under the %v deadline", elapsed, timeout)
			}
		})
	}
}

// TestUploadBodies: the upload read accepts a body with an exact
// Content-Length and a chunked one with none, up to MaxBodyBytes
// inclusive, and refuses as bad_input a chunked body over the limit,
// an empty body, and a body shorter than its declared length.
func TestUploadBodies(t *testing.T) {
	data := encodedTrace(t, 200, 7)
	limit := int64(len(data))
	over := append(append([]byte(nil), data...), 0)

	post := func(t *testing.T, url string, body io.Reader, length int64) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, url+"/v1/profile?n=10", body)
		if err != nil {
			t.Fatal(err)
		}
		req.ContentLength = length
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	// shortBody declares the whole upload but sends only its first half
	// over a raw connection, then half-closes it: the server reads EOF
	// early.
	shortBody := func(t *testing.T, url string) (int, []byte) {
		t.Helper()
		conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "POST /v1/profile?n=10 HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n", len(data))
		if _, err := conn.Write(data[:len(data)/2]); err != nil {
			t.Fatal(err)
		}
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	cases := []struct {
		name    string
		send    func(t *testing.T, url string) (int, []byte)
		status  int
		errText string // the error must contain it (400s)
	}{
		{"exact length at the limit", func(t *testing.T, url string) (int, []byte) {
			return post(t, url, bytes.NewReader(data), limit)
		}, http.StatusOK, ""},
		{"chunked at the limit", func(t *testing.T, url string) (int, []byte) {
			return post(t, url, hiddenLength{bytes.NewReader(data)}, 0)
		}, http.StatusOK, ""},
		{"chunked over the limit", func(t *testing.T, url string) (int, []byte) {
			return post(t, url, hiddenLength{bytes.NewReader(over)}, 0)
		}, http.StatusBadRequest, fmt.Sprintf("trace upload exceeds %d bytes", limit)},
		{"empty", func(t *testing.T, url string) (int, []byte) {
			return post(t, url, http.NoBody, 0)
		}, http.StatusBadRequest, "empty trace upload"},
		{"shorter than declared", shortBody, http.StatusBadRequest, "reading trace upload"},
	}
	var want string // the first 200's body, less elapsed_ms
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leakCheck(t)
			_, ts := newTestServer(t, Config{MaxBodyBytes: limit})
			status, out := tc.send(t, ts.URL)
			if status != tc.status {
				t.Fatalf("status %d, want %d; body %s", status, tc.status, out)
			}
			if status != http.StatusOK {
				e := decodeError(t, out)
				if e.Class != "bad_input" || !strings.Contains(e.Error, tc.errText) {
					t.Fatalf("error %+v, want bad_input containing %q", e, tc.errText)
				}
				return
			}
			got := stripVolatile(t, out)
			if want == "" {
				want = got
			} else if got != want {
				t.Fatalf("response %s differs from the exact-length upload's %s", got, want)
			}
		})
	}
}

// firstRead records the length of the buffer its first Read is
// handed, and delivers n zero bytes, then EOF.
type firstRead struct {
	n, first int
}

func (f *firstRead) Read(p []byte) (int, error) {
	if f.first == 0 {
		f.first = len(p)
	}
	k := min(f.n, len(p))
	f.n -= k
	if f.n == 0 {
		return k, io.EOF
	}
	return k, nil
}

// TestUploadPresizeCapped: the buffer an upload is read into before
// its bytes arrive holds the declared length plus one byte, but never
// more than uploadPresize, whatever Content-Length says; a chunked
// upload starts at bytes.MinRead. Growth past that doubles with the
// bytes received and never passes the declared length plus one.
func TestUploadPresizeCapped(t *testing.T) {
	const maxBytes = 64 << 20
	for _, tc := range []struct {
		declared  int64
		wantFirst int
	}{
		{-1, bytes.MinRead},
		{0, 1},
		{100, 101},
		{uploadPresize - 1, uploadPresize},
		{uploadPresize, uploadPresize},
		{maxBytes, uploadPresize},
		{1 << 62, uploadPresize},
	} {
		r := &firstRead{}
		if _, err := readUpload(r, tc.declared, maxBytes); err != nil {
			t.Fatalf("declared %d: %v", tc.declared, err)
		}
		if r.first != tc.wantFirst {
			t.Errorf("declared %d: first read offered %d bytes, want %d", tc.declared, r.first, tc.wantFirst)
		}
	}

	// Past the presize the capacity doubles, capped at declared+1.
	const size = 3*uploadPresize + 5
	data, err := readUpload(&firstRead{n: size}, size, maxBytes)
	if err != nil || len(data) != size {
		t.Fatalf("read %d bytes, err %v; want %d", len(data), err, size)
	}
	if cap(data) != size+1 {
		t.Errorf("capacity %d, want declared+1 = %d", cap(data), size+1)
	}
	data, err = readUpload(&firstRead{n: size}, -1, maxBytes)
	if err != nil || len(data) != size {
		t.Fatalf("chunked: read %d bytes, err %v; want %d", len(data), err, size)
	}
	if cap(data) >= 2*size {
		t.Errorf("chunked: capacity %d for %d bytes, want under twice", cap(data), size)
	}
	// A body longer than the limit is refused after one extra byte.
	if _, err := readUpload(&firstRead{n: 1000}, -1, 999); err == nil ||
		!strings.Contains(err.Error(), "exceeds 999 bytes") {
		t.Fatalf("over-limit chunked body: err %v, want exceeds 999 bytes", err)
	}
}
