package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/wire"
)

// countingReader counts the reads on a connection that returned data: the
// client-side proxy for how well the server coalesces its flushes.
type countingReader struct {
	r     io.Reader
	reads int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.reads++
	}
	return n, err
}

// client is the benchmark's load generator for one connection. It owns its
// net.Conn and speaks the protocol through wire's public encoders, so the
// program under test sees nothing but the generated records.
type client struct {
	nc     net.Conn
	cr     *countingReader
	br     *bufio.Reader
	bw     *bufio.Writer
	binary bool
	fr     *wire.FrameReader
	fw     *wire.FrameWriter
	enc    *json.Encoder
}

// readTimeout bounds every blocking read, so a dropped response fails the
// run instead of hanging it.
const readTimeout = 10 * time.Second

// dial opens a tokened OpX/NSA session and completes the handshake: the
// framing ack for binary sessions, then the resume ack every tokened hello
// earns. When dial returns, the server has built the session's predictor.
func dial(addr, token string, binary bool) (*client, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	c := &client{nc: nc, cr: &countingReader{r: nc}, bw: bufio.NewWriterSize(nc, 64<<10), binary: binary}
	c.br = bufio.NewReaderSize(c.cr, 64<<10)
	c.enc = json.NewEncoder(c.bw)
	hello := wire.Hello{Carrier: carrierName, Arch: arch, SessionToken: token}
	if binary {
		hello.Framing = string(wire.FramingBinary)
	}
	if err := c.handshake(hello); err != nil {
		nc.Close()
		return nil, fmt.Errorf("handshake with %s: %w", addr, err)
	}
	return c, nil
}

func (c *client) handshake(hello wire.Hello) error {
	if err := c.enc.Encode(hello); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	c.nc.SetReadDeadline(time.Now().Add(readTimeout))
	if c.binary {
		line, err := wire.ReadLine(c.br, wire.MaxLineBytes)
		if err != nil {
			return err
		}
		var ack struct {
			wire.FramingAck
			Err string `json:"error"`
		}
		if err := json.Unmarshal(line, &ack); err != nil {
			return err
		}
		if ack.Err != "" || !ack.FramingAck.FramingAck {
			return fmt.Errorf("framing refused: %s", line)
		}
		c.fr = wire.NewFrameReader(c.br)
		c.fw = wire.NewFrameWriter(c.bw)
		typ, p, err := c.fr.ReadFrame()
		if err != nil {
			return err
		}
		if typ != wire.FrameResumeAck {
			return fmt.Errorf("expected resume ack, got frame 0x%02x: %s", typ, p)
		}
		return nil
	}
	line, err := wire.ReadLine(c.br, wire.MaxLineBytes)
	if err != nil {
		return err
	}
	var ack struct {
		wire.ResumeAck
		Err string `json:"error"`
	}
	if err := json.Unmarshal(line, &ack); err != nil {
		return err
	}
	if ack.Err != "" || !ack.ResumeAck.ResumeAck {
		return fmt.Errorf("expected resume ack, got %s", line)
	}
	return nil
}

// send encodes one step (control records, then the sample) into the write
// buffer; flush puts it on the wire.
func (c *client) send(st *step) error {
	if c.binary {
		for i := range st.reports {
			mr := st.reports[i]
			mr.Time += st.off
			if err := c.fw.WriteReport(&mr); err != nil {
				return err
			}
		}
		for i := range st.hos {
			ho := st.hos[i]
			ho.Time += st.off
			if err := c.fw.WriteHandover(&ho); err != nil {
				return err
			}
		}
		return c.fw.WriteSample(&st.smp)
	}
	for i := range st.reports {
		mr := st.reports[i]
		mr.Time += st.off
		if err := c.enc.Encode(wire.Record{Report: &mr}); err != nil {
			return err
		}
	}
	for i := range st.hos {
		ho := st.hos[i]
		ho.Time += st.off
		if err := c.enc.Encode(wire.Record{HO: &ho}); err != nil {
			return err
		}
	}
	return c.enc.Encode(wire.Record{Sample: &st.smp})
}

func (c *client) flush() error { return c.bw.Flush() }

// wait blocks until response bytes are readable, without consuming them.
func (c *client) wait() error {
	c.arm()
	_, err := c.br.Peek(1)
	return err
}

// arm sets the read deadline before a read that may block.
func (c *client) arm() {
	if c.br.Buffered() == 0 {
		c.nc.SetReadDeadline(time.Now().Add(readTimeout))
	}
}

// read returns the next response.
func (c *client) read(r *wire.Response) error {
	c.arm()
	if c.binary {
		typ, p, err := c.fr.ReadFrame()
		if err != nil {
			return err
		}
		switch typ {
		case wire.FrameResponse:
			return wire.DecodeResponse(p, r)
		case wire.FrameError:
			return fmt.Errorf("server error: %s", p)
		default:
			return fmt.Errorf("unexpected frame 0x%02x", typ)
		}
	}
	line, err := wire.ReadLine(c.br, wire.MaxLineBytes)
	if err != nil {
		return err
	}
	var env struct {
		wire.Response
		Err string `json:"error"`
	}
	if err := json.Unmarshal(line, &env); err != nil {
		return fmt.Errorf("bad response line: %w", err)
	}
	if env.Err != "" {
		return fmt.Errorf("server error: %s", env.Err)
	}
	*r = env.Response
	return nil
}

// finish half-closes the session and reads until EOF, returning how many
// responses arrived that nobody asked for.
func (c *client) finish() (extra int64, err error) {
	if err := c.bw.Flush(); err != nil {
		return 0, err
	}
	if err := c.nc.(*net.TCPConn).CloseWrite(); err != nil {
		return 0, err
	}
	var r wire.Response
	for {
		if err := c.read(&r); err != nil {
			if isEOF(err) {
				return extra, nil
			}
			return extra, err
		}
		extra++
	}
}

func (c *client) close() { c.nc.Close() }

func isEOF(err error) bool { return errors.Is(err, io.EOF) }
