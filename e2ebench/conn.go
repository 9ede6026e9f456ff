package main

import (
	"context"
	"time"

	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/transport"
)

// Both wrappers below sit between a collective.Comm and its fabric
// endpoint. They forward every optional capability through the transport
// helpers: a wrapper that hid VectoredSender would turn TCP's one-flush
// chunk batches into per-frame sends, and one that hid the negotiated
// wire version would drop the codec back to v1, so the benchmark would
// time a different program.

// linkConn emulates a slow link: every send call first sleeps the α-β
// cost of its payload, one α per call (one wire operation) plus β per
// 4-byte element.
type linkConn struct {
	transport.Conn
	model netsim.Model
}

func (c *linkConn) delay(bytes int) {
	time.Sleep(c.model.PointToPoint((bytes + 3) / 4))
}

func (c *linkConn) Send(ctx context.Context, dst, tag int, payload []byte) error {
	c.delay(len(payload))
	return c.Conn.Send(ctx, dst, tag, payload)
}

func (c *linkConn) SendPooled(ctx context.Context, dst, tag int, payload []byte) error {
	c.delay(len(payload))
	return transport.SendPooled(ctx, c.Conn, dst, tag, payload)
}

func (c *linkConn) SendVec(ctx context.Context, dst, tag int, frames [][]byte) error {
	n := 0
	for _, f := range frames {
		n += len(f)
	}
	c.delay(n)
	return transport.SendVec(ctx, c.Conn, dst, tag, frames)
}

func (c *linkConn) SendIsSynchronous() bool     { return transport.SendConsumedOnReturn(c.Conn) }
func (c *linkConn) RecvIsPrivate() bool         { return transport.PrivateRecv(c.Conn) }
func (c *linkConn) NegotiatedWireVersion() byte { return transport.NegotiatedWireVersion(c.Conn) }

// tracedConn times every call into its endpoint from outside and records
// one span per call in the rank's span buffer.
type tracedConn struct {
	transport.Conn
	rec *rankTrace
}

func (c *tracedConn) Send(ctx context.Context, dst, tag int, payload []byte) error {
	start := c.rec.now()
	err := c.Conn.Send(ctx, dst, tag, payload)
	c.rec.add(spanSend, start, 1, err)
	return err
}

func (c *tracedConn) SendPooled(ctx context.Context, dst, tag int, payload []byte) error {
	start := c.rec.now()
	err := transport.SendPooled(ctx, c.Conn, dst, tag, payload)
	c.rec.add(spanSend, start, 1, err)
	return err
}

func (c *tracedConn) SendVec(ctx context.Context, dst, tag int, frames [][]byte) error {
	start := c.rec.now()
	err := transport.SendVec(ctx, c.Conn, dst, tag, frames)
	c.rec.add(spanSend, start, len(frames), err)
	return err
}

func (c *tracedConn) Recv(ctx context.Context, src, tag int) ([]byte, error) {
	start := c.rec.now()
	payload, err := c.Conn.Recv(ctx, src, tag)
	c.rec.add(spanRecv, start, 0, err)
	return payload, err
}

func (c *tracedConn) SendIsSynchronous() bool     { return transport.SendConsumedOnReturn(c.Conn) }
func (c *tracedConn) RecvIsPrivate() bool         { return transport.PrivateRecv(c.Conn) }
func (c *tracedConn) NegotiatedWireVersion() byte { return transport.NegotiatedWireVersion(c.Conn) }
