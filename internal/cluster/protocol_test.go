package cluster

import (
	"errors"
	"net"
	"strings"
	"testing"
)

// pipeCodec returns a codec that reads the bytes of write, sent from
// their own goroutine. Cleanup closes the pipe, which also unblocks a
// writer the reader stopped draining.
func pipeCodec(t *testing.T, write string) *connCodec {
	t.Helper()
	client, server := net.Pipe()
	t.Cleanup(func() {
		server.Close() //nolint:errcheck // test teardown
	})
	go func() {
		client.Write([]byte(write)) //nolint:errcheck // reader may close first
		client.Close()              //nolint:errcheck // writer done
	}()
	return newCodec(server)
}

// TestControlMessageSizeCap: a 2 MiB line from a peer fails with an
// error naming the 1 MiB limit instead of being buffered whole.
func TestControlMessageSizeCap(t *testing.T) {
	line := `{"t":"join","name":"` + strings.Repeat("a", 2<<20) + `"}` + "\n"
	_, err := pipeCodec(t, line).read()
	if !errors.Is(err, errControlMsgTooLarge) {
		t.Fatalf("2 MiB message: err = %v, want %v", err, errControlMsgTooLarge)
	}
	if !strings.Contains(err.Error(), "1 MiB") {
		t.Fatalf("error %q does not name the limit", err)
	}
}

// TestControlMessageSizeCapPerMessage: the cap applies to each message,
// not to the connection. A message just under the limit decodes, and so
// does a stream of small messages that together exceed it.
func TestControlMessageSizeCapPerMessage(t *testing.T) {
	big := strings.Repeat("r", maxControlMsg-64)
	hb := `{"t":"hb"}` + "\n"
	stream := `{"t":"abort","reason":"` + big + `"}` + "\n" + strings.Repeat(hb, 2*maxControlMsg/len(hb))
	codec := pipeCodec(t, stream)
	m, err := codec.read()
	if err != nil || m.T != msgAbort || len(m.Reason) != len(big) {
		t.Fatalf("near-limit message: %v", err)
	}
	for i := 0; i < 2*maxControlMsg/len(hb); i++ {
		if m, err := codec.read(); err != nil || m.T != msgHeartbeat {
			t.Fatalf("heartbeat %d after %d bytes: %v", i, i*len(hb), err)
		}
	}
}
