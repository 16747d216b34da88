package main

import (
	"errors"
	"net"
	"os"
	"time"
)

// meteredConn wraps a load-generator connection. It counts the bytes the
// client writes, the time spent inside Write (blocked on the socket, so
// on the server draining it) and the time spent in reads that ended at a
// deadline (PollFeedback waiting for a push that never came). With a
// record budget it also keeps the first client→server bytes, which the
// traced ladder replays in process. A wire.Client is used from one
// goroutine, so the counters need no synchronisation.
type meteredConn struct {
	net.Conn
	written  int64
	writeDur time.Duration
	pollWait time.Duration
	record   []byte
	budget   int
}

func dialMetered(addr string, recordBudget int) (*meteredConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &meteredConn{Conn: c, budget: recordBudget}, nil
}

func (c *meteredConn) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(b)
	c.writeDur += time.Since(start)
	c.written += int64(n)
	if keep := c.budget - len(c.record); keep > 0 {
		c.record = append(c.record, b[:min(keep, n)]...)
	}
	return n, err
}

func (c *meteredConn) Read(b []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(b)
	if err != nil && errors.Is(err, os.ErrDeadlineExceeded) {
		c.pollWait += time.Since(start)
	}
	return n, err
}
