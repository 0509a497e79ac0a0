package fleet

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"testing"
)

// TestReplyReadAllocatesNothing: a 200 with a Content-Length, ioserve's
// every predict reply, is read from its status line to the end of its body
// without an allocation.
func TestReplyReadAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	reply := []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nDate: Mon, 02 Jan 2006 15:04:05 GMT\r\nContent-Length: %d\r\n\r\n%s", len(oneRowReply), oneRowReply))
	src := bytes.NewReader(reply)
	br := bufio.NewReader(src)
	h := new(hopBody)
	read := func() {
		src.Reset(reply)
		br.Reset(src)
		var head replyHead
		if err := readHead(br, &head); err != nil || head != (replyHead{status: http.StatusOK, length: int64(len(oneRowReply))}) {
			t.Fatalf("head %+v, %v", head, err)
		}
		if err := h.readBody(br, &head, maxReplicaReply); err != nil || string(h.reply) != oneRowReply || br.Buffered() != 0 {
			t.Fatalf("body %q, %v", h.reply, err)
		}
	}
	read()
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Errorf("reading a 200 with a Content-Length allocates %.0f times, want 0", n)
	}
}

// FuzzReplyHead: whatever reply head readHead accepts, net/http's
// ReadResponse reads too, with the same status, the same framing of the body
// (its length, or chunked), the same word on closing the connection, the
// same Retry-After, and ends at the same byte. The hop refuses a status
// outside 200–599 from either. A reply ReadResponse reads and readHead
// refuses must fail with the error of one of the deliberate seeds.
func FuzzReplyHead(f *testing.F) {
	for _, seed := range []string{
		"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
		// Both Content-Length and chunked: chunked wins.
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		// Two Content-Length values that differ, as numbers or only as text,
		// and two that agree.
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 02\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length:  2 \r\n\r\n{}",
		// A Content-Length that is not a number, even where chunked wins.
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: x\r\nContent-Length: x\r\n\r\n0\r\n\r\n",
		// HTTP/1.0 closes unless it says keep-alive, and ignores
		// Transfer-Encoding.
		"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.0 200 OK\r\nConnection: Keep-Alive\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.0 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n{}",
		// Other versions: net/http reads HTTP/0.0's framing as HTTP/1.1's.
		"HTTP/0.0 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"HTTP/2.0 200 OK\r\nConnection: x,\tclose\r\nContent-Length: 2\r\n\r\n{}",
		// A name with a space before its colon matches nothing; a value may
		// hold bytes past ASCII but no control character.
		"HTTP/1.1 304 Not Modified\r\nContent-Length : 2\r\nRetry-After: \xe2\x88\x9e\r\n\r\n",
		"HTTP/1.1 200 OK\r\nRetry-After: 1\x7f\r\nContent-Length: 0\r\n\r\n",
		// Lowercase header names.
		"HTTP/1.1 429 Too Many Requests\r\ncontent-length: 2\r\nretry-after: 1\r\nconnection: upgrade, CLOSE\r\n\r\n{}",
		// A missing final CRLF.
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r",
		// A transfer coding other than chunked.
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n",
		// No body whatever the headers say; no length, so read to the close.
		"HTTP/1.1 204 No Content\r\nContent-Length: 7\r\n\r\n",
		"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 2\r\nRetry-After: 3\r\n\r\nbusy",
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nTrailer: Content-Length\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	// The replies ReadResponse reads and readHead refuses, each on purpose.
	type refusal struct {
		err   error
		reply string
	}
	deliberate := []refusal{
		// An obs-fold continuation line, which RFC 9112 deprecates and no
		// server of this module writes.
		{errFoldedHeader, "HTTP/1.1 200 OK\r\nRetry-After: 1\r\n 2\r\nContent-Length: 0\r\n\r\n"},
		// A header line longer than the 4 KB read buffer, which the hop would
		// otherwise have to copy out of it.
		{errLongHeadLine, "HTTP/1.1 200 OK\r\nX-Long: " + strings.Repeat("a", 5000) + "\r\nContent-Length: 0\r\n\r\n"},
	}
	for _, d := range deliberate {
		_, wantErr := http.ReadResponse(bufio.NewReader(strings.NewReader(d.reply)), nil)
		if err := readHead(bufio.NewReader(strings.NewReader(d.reply)), new(replyHead)); !errors.Is(err, d.err) || wantErr != nil {
			f.Fatalf("readHead: %v, want %v; ReadResponse: %v, want none\n%q", err, d.err, wantErr, d.reply)
		}
		f.Add([]byte(d.reply))
	}
	f.Fuzz(func(t *testing.T, reply []byte) {
		src := bytes.NewReader(reply)
		br := bufio.NewReader(src)
		var got replyHead
		err := readHead(br, &got)
		gotEnd := len(reply) - src.Len() - br.Buffered()

		src = bytes.NewReader(reply)
		br = bufio.NewReader(src)
		resp, wantErr := http.ReadResponse(br, nil)
		if wantErr == nil && (resp.StatusCode < 200 || resp.StatusCode > 599) {
			wantErr = fmt.Errorf("status %q", resp.Status)
		}
		switch {
		case err != nil && wantErr != nil:
			return
		case err != nil:
			if !slices.ContainsFunc(deliberate, func(d refusal) bool { return errors.Is(err, d.err) }) {
				t.Fatalf("readHead refuses a reply ReadResponse reads: %v\n%q", err, reply)
			}
			return
		case wantErr != nil:
			t.Fatalf("readHead reads %+v from a reply ReadResponse refuses: %v\n%q", got, wantErr, reply)
		}
		want := replyHead{status: resp.StatusCode, length: resp.ContentLength, chunked: resp.TransferEncoding != nil,
			close: resp.Close, retryAfter: resp.Header.Get("Retry-After")}
		if resp.Body == http.NoBody {
			want.length, want.chunked = 0, false
		}
		if wantEnd := len(reply) - src.Len() - br.Buffered(); got != want || gotEnd != wantEnd {
			t.Fatalf("readHead reads %+v ending at byte %d, ReadResponse %+v at %d\n%q", got, gotEnd, want, wantEnd, reply)
		}
	})
}
