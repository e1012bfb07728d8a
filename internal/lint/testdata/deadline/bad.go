// Known-bad corpus for the deadline checker: an unarmed write on a
// fresh conn, an arm of the wrong kind, an arm on only one branch, and
// a helper whose caller never arms the conn it passes in, directly or as
// a field of a slice element.

package deadline

import (
	"net"
	"time"
)

var payload = []byte("tag-report")

// No deadline at all: a dead peer parks this write forever.
func bareWrite() error {
	c, err := net.Dial("tcp", "127.0.0.1:6653")
	if err != nil {
		return err
	}
	defer c.Close()
	_, err = c.Write(payload) // want "without a dominating write deadline"
	return err
}

// The read arm does not cover the write: SetReadDeadline bounds Read
// only.
func wrongKind() error {
	c, err := net.Dial("tcp", "127.0.0.1:6653")
	if err != nil {
		return err
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(time.Second))
	_, err = c.Write(payload) // want "without a dominating write deadline"
	return err
}

// Armed on one branch only: the else path reaches the read bare, so no
// deadline dominates it.
func branchArm(slow bool) error {
	c, err := net.Dial("tcp", "127.0.0.1:6653")
	if err != nil {
		return err
	}
	defer c.Close()
	if slow {
		c.SetReadDeadline(time.Now().Add(time.Minute))
	}
	buf := make([]byte, 64)
	_, err = c.Read(buf) // want "without a dominating read deadline"
	return err
}

// The helper trusts its caller to have armed the conn — and relay
// never does, so the finding lands on the op with the caller named.
func pushUpstream(c net.Conn) error {
	_, err := c.Write(payload) // want "reaches a caller"
	return err
}

func relay(addr string) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	return pushUpstream(c)
}

// A worker's connection lives in a slice of workers; the helper reads
// through its parameter's field, and the caller hands it &ws[i] without
// arming ws[i].conn.
type worker struct{ conn net.Conn }

func drain(w *worker) error {
	buf := make([]byte, 64)
	_, err := w.conn.Read(buf) // want "reaches a caller"
	return err
}

func drainAll(addrs []string) error {
	ws := make([]worker, len(addrs))
	for i, a := range addrs {
		c, err := net.Dial("tcp", a)
		if err != nil {
			return err
		}
		ws[i].conn = c
	}
	for i := range ws {
		if err := drain(&ws[i]); err != nil {
			return err
		}
	}
	return nil
}
