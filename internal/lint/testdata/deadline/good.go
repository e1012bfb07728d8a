// Known-good corpus for the deadline checker: arms that dominate the
// op on every path, a SetDeadline covering both kinds, a caller that
// arms before handing the conn down (directly or as a field of a slice
// element), and an annotated unit whose governance is documented rather
// than syntactic.

package deadline

import (
	"net"
	"time"
)

var beat = []byte("heartbeat")

// The straightforward discipline: arm, then write.
func armedWrite() error {
	c, err := net.Dial("tcp", "127.0.0.1:6653")
	if err != nil {
		return err
	}
	defer c.Close()
	c.SetWriteDeadline(time.Now().Add(time.Second))
	_, err = c.Write(beat)
	return err
}

// SetDeadline arms both directions at once.
func bothKinds() error {
	c, err := net.Dial("tcp", "127.0.0.1:6653")
	if err != nil {
		return err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(time.Second))
	if _, err := c.Write(beat); err != nil {
		return err
	}
	buf := make([]byte, 64)
	_, err = c.Read(buf)
	return err
}

// Armed on every branch: the merge keeps the deadline.
func branchBoth(slow bool) error {
	c, err := net.Dial("tcp", "127.0.0.1:6653")
	if err != nil {
		return err
	}
	defer c.Close()
	if slow {
		c.SetReadDeadline(time.Now().Add(time.Minute))
	} else {
		c.SetReadDeadline(time.Now().Add(time.Second))
	}
	buf := make([]byte, 64)
	_, err = c.Read(buf)
	return err
}

// The helper leaves arming to its caller — and forward actually does
// it, so the interprocedural walk finds the chain armed at the site.
func sendDown(c net.Conn) error {
	_, err := c.Write(beat)
	return err
}

func forward(addr string) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	c.SetWriteDeadline(time.Now().Add(time.Second))
	return sendDown(c)
}

// lint:deadline conn=c the probe socket is closed by its owner's watchdog
// within a bounded window, so a per-write deadline would double-govern it
func annotatedProbe(c net.Conn) error {
	_, err := c.Write(beat)
	return err
}

func probe(addr string) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	return annotatedProbe(c)
}

// The slice-element form: the caller arms ws[i].conn before handing &ws[i]
// to a helper that reads through its parameter's field.
type reader struct{ conn net.Conn }

func drainArmed(w *reader) error {
	buf := make([]byte, 64)
	_, err := w.conn.Read(buf)
	return err
}

func drainAllArmed(addrs []string) error {
	ws := make([]reader, len(addrs))
	for i, a := range addrs {
		c, err := net.Dial("tcp", a)
		if err != nil {
			return err
		}
		ws[i].conn = c
	}
	for i := range ws {
		ws[i].conn.SetReadDeadline(time.Now().Add(time.Second))
		if err := drainArmed(&ws[i]); err != nil {
			return err
		}
	}
	return nil
}
