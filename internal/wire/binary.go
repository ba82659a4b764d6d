// Binary framing: the length-prefixed record encoding of
// docs/PROTOCOL.md §Binary framing. Every frame is
//
//	uint32 LE payload length | uint8 frame type | payload
//
// where the length counts payload bytes only (not the type byte). All
// multi-byte integers and floats are little-endian; floats are IEEE 754
// binary64. The per-type payload layouts are fixed-width except for
// handover events, whose two cell-ID strings carry uint16 length prefixes.

package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/cellular"
	"repro/internal/trace"
)

// Frame types. Client→server types have the high bit clear, server→client
// types have it set, so a captured stream is unambiguous about direction.
const (
	// FrameSample carries one 20 Hz radio sample (client→server).
	FrameSample byte = 0x01
	// FrameReport carries one measurement report (client→server).
	FrameReport byte = 0x02
	// FrameHO carries one handover event (client→server).
	FrameHO byte = 0x03
	// FrameMigrate carries one warm session state between cluster nodes
	// (shipping node→receiving node), for drain migration and crash
	// replication alike. Only valid on sessions whose hello set "migrate"
	// or "replicate" — the hello flag, not the frame, tells the receiver
	// whether to serve the state now or hold it as a replica — so its
	// absence never occurs mid-session and no version bump is needed
	// (docs/PROTOCOL.md §State-transfer frames). The payload is the JSON
	// encoding of a cluster session state; state transfer is a
	// control-plane path, so it trades the fixed-width layout for an
	// evolvable schema. Type 0x05 is retired (it once carried replication
	// pushes) and is refused like any unknown type.
	FrameMigrate byte = 0x04
	// FrameResponse carries one per-sample prediction (server→client).
	FrameResponse byte = 0x81
	// FrameResumeAck carries the post-hello resume acknowledgement
	// (server→client).
	FrameResumeAck byte = 0x82
	// FrameError carries a UTF-8 teardown error message (server→client),
	// the binary twin of the JSONL ErrorLine.
	FrameError byte = 0x83
	// FrameMigrateAck acknowledges one FrameMigrate (receiving
	// node→shipping node): uint8 ok | int64 seq, where seq is the 1-based
	// ordinal of the migrate frame it answers. Type 0x85 is retired with
	// 0x05.
	FrameMigrateAck byte = 0x84
)

// Fixed payload lengths (bytes) of the fixed-width frame types.
const (
	sampleFrameLen     = 8 + 4*8 + 3 + 8 + 4*cellObsLen // 175
	cellObsLen         = 4 + 2 + 3*8 + 1                // 31
	reportFrameLen     = 8 + 2 + 2*4 + 2*8 + 3*8        // 58
	responseFrameLen   = 8 + 1 + 2*8 + 2*8              // 41
	resumeAckFrameLen  = 1 + 8                          // 9
	migrateAckFrameLen = 1 + 8                          // 9
	frameHeaderLen     = 4 + 1
)

// ErrFrameTooLarge reports a frame whose declared payload length exceeds
// MaxFrameBytes; the session is torn down rather than buffering it.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// FrameWriter encodes protocol records as binary frames onto a buffered
// writer. It reuses one scratch buffer across calls, so steady-state
// writes allocate nothing. Not safe for concurrent use. Callers flush the
// underlying writer themselves (the server coalesces flushes across
// pipelined responses; see docs/PROTOCOL.md §Flushing).
type FrameWriter struct {
	w       *bufio.Writer
	scratch []byte
}

// NewFrameWriter returns a FrameWriter emitting onto w.
func NewFrameWriter(w *bufio.Writer) *FrameWriter {
	return &FrameWriter{w: w, scratch: make([]byte, 0, 256)}
}

// begin resets the scratch buffer with room for the header and returns it.
func (fw *FrameWriter) begin(typ byte) []byte {
	b := append(fw.scratch[:0], 0, 0, 0, 0, typ)
	return b
}

// finish back-fills the length prefix and writes the frame.
func (fw *FrameWriter) finish(b []byte) error {
	binary.LittleEndian.PutUint32(b[:4], uint32(len(b)-frameHeaderLen))
	fw.scratch = b
	_, err := fw.w.Write(b)
	return err
}

func appendU8(b []byte, v byte) []byte   { return append(b, v) }
func appendBool(b []byte, v bool) []byte { return append(b, boolByte(v)) }

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendI32(b []byte, v int32) []byte  { return binary.LittleEndian.AppendUint32(b, uint32(v)) }
func appendI64(b []byte, v int64) []byte  { return binary.LittleEndian.AppendUint64(b, uint64(v)) }
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendCellObs(b []byte, o *trace.CellObs) []byte {
	b = appendI32(b, int32(o.PCI))
	b = appendU8(b, byte(o.Tech))
	b = appendU8(b, byte(o.Band))
	b = appendF64(b, o.RSRP)
	b = appendF64(b, o.RSRQ)
	b = appendF64(b, o.SINR)
	return appendBool(b, o.Valid)
}

// WriteSample emits one radio sample as a FrameSample frame.
func (fw *FrameWriter) WriteSample(s *trace.Sample) error {
	b := fw.begin(FrameSample)
	b = appendI64(b, int64(s.Time))
	b = appendF64(b, s.X)
	b = appendF64(b, s.Y)
	b = appendF64(b, s.OdometerM)
	b = appendF64(b, s.SpeedMPS)
	b = appendU8(b, byte(s.Arch))
	b = appendBool(b, s.InHO)
	b = appendU8(b, byte(s.HOType))
	b = appendF64(b, s.TputMbps)
	b = appendCellObs(b, &s.ServingLTE)
	b = appendCellObs(b, &s.ServingNR)
	b = appendCellObs(b, &s.NeighborLTE)
	b = appendCellObs(b, &s.NeighborNR)
	return fw.finish(b)
}

// WriteReport emits one measurement report as a FrameReport frame.
func (fw *FrameWriter) WriteReport(mr *cellular.MeasurementReport) error {
	b := fw.begin(FrameReport)
	b = appendI64(b, int64(mr.Time))
	b = appendU8(b, byte(mr.Event))
	b = appendU8(b, byte(mr.Tech))
	b = appendI32(b, int32(mr.ServingPCI))
	b = appendI32(b, int32(mr.NeighborPCI))
	b = appendF64(b, mr.ServingRSRP)
	b = appendF64(b, mr.NeighborRSRP)
	b = appendF64(b, mr.Serving.RSRP)
	b = appendF64(b, mr.Serving.RSRQ)
	b = appendF64(b, mr.Serving.SINR)
	return fw.finish(b)
}

// WriteHandover emits one handover event as a FrameHO frame.
func (fw *FrameWriter) WriteHandover(ho *cellular.HandoverEvent) error {
	if len(ho.SourceCell) > math.MaxUint16 || len(ho.TargetCell) > math.MaxUint16 {
		return fmt.Errorf("wire: handover cell ID exceeds %d bytes", math.MaxUint16)
	}
	b := fw.begin(FrameHO)
	b = appendI64(b, int64(ho.Time))
	b = appendU8(b, byte(ho.Type))
	b = appendU8(b, byte(ho.Arch))
	b = appendU8(b, byte(ho.Band))
	b = appendI32(b, int32(ho.SourcePCI))
	b = appendI32(b, int32(ho.TargetPCI))
	b = appendU16(b, uint16(len(ho.SourceCell)))
	b = append(b, ho.SourceCell...)
	b = appendU16(b, uint16(len(ho.TargetCell)))
	b = append(b, ho.TargetCell...)
	b = appendI64(b, int64(ho.T1))
	b = appendI64(b, int64(ho.T2))
	b = appendBool(b, ho.CoLocated)
	b = appendF64(b, ho.DistanceM)
	b = appendI32(b, int32(ho.Signaling.RRC))
	b = appendI32(b, int32(ho.Signaling.MAC))
	b = appendI32(b, int32(ho.Signaling.PHY))
	return fw.finish(b)
}

// WriteResponse emits one prediction as a FrameResponse frame. TypeName is
// not transmitted; decoders reconstruct it from Type.
func (fw *FrameWriter) WriteResponse(r Response) error {
	b := fw.begin(FrameResponse)
	b = appendI64(b, int64(r.Time))
	b = appendU8(b, byte(r.Type))
	b = appendF64(b, r.Score)
	b = appendF64(b, r.Similarity)
	b = appendI64(b, r.LeadMS)
	b = appendI64(b, r.Seq)
	return fw.finish(b)
}

// WriteResumeAck emits the post-hello resume acknowledgement.
func (fw *FrameWriter) WriteResumeAck(a ResumeAck) error {
	b := fw.begin(FrameResumeAck)
	b = appendBool(b, a.Resumed)
	b = appendI64(b, a.Seq)
	return fw.finish(b)
}

// WriteError emits a teardown error message as a FrameError frame.
func (fw *FrameWriter) WriteError(msg string) error {
	b := fw.begin(FrameError)
	b = append(b, msg...)
	return fw.finish(b)
}

// WriteMigrate emits one JSON-encoded session state as a FrameMigrate
// frame. The encoding is the caller's (internal/cluster owns the schema);
// the wire layer only frames it.
func (fw *FrameWriter) WriteMigrate(payload []byte) error {
	if len(payload) > MaxFrameBytes {
		return ErrFrameTooLarge
	}
	b := fw.begin(FrameMigrate)
	b = append(b, payload...)
	return fw.finish(b)
}

// WriteMigrateAck emits the acknowledgement of one migrate frame.
func (fw *FrameWriter) WriteMigrateAck(a MigrateAck) error {
	b := fw.begin(FrameMigrateAck)
	b = appendBool(b, a.OK)
	b = appendI64(b, a.Seq)
	return fw.finish(b)
}

// FrameReader decodes binary frames from a buffered reader, reusing one
// payload buffer across calls. Not safe for concurrent use.
type FrameReader struct {
	br  *bufio.Reader
	buf []byte
	hdr [frameHeaderLen]byte
}

// NewFrameReader returns a FrameReader consuming from br. The reader may
// already hold buffered bytes (e.g. records pipelined behind the hello
// line); framing picks up exactly where the line protocol left off.
func NewFrameReader(br *bufio.Reader) *FrameReader {
	return &FrameReader{br: br, buf: make([]byte, 0, 256)}
}

// ReadFrame reads the next frame and returns its type and payload. The
// payload slice is only valid until the next ReadFrame call. A clean EOF
// on a frame boundary returns io.EOF; EOF inside a frame returns
// io.ErrUnexpectedEOF. Oversized frames return ErrFrameTooLarge.
func (fr *FrameReader) ReadFrame() (byte, []byte, error) {
	// The header scratch lives on the reader so the io.ReadFull interface
	// call cannot force a per-frame heap allocation.
	if _, err := io.ReadFull(fr.br, fr.hdr[:1]); err != nil {
		return 0, nil, err // io.EOF on a frame boundary stays io.EOF
	}
	if _, err := io.ReadFull(fr.br, fr.hdr[1:]); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(fr.hdr[:4])
	typ := fr.hdr[4]
	if n > MaxFrameBytes {
		return 0, nil, ErrFrameTooLarge
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	fr.buf = fr.buf[:n]
	if _, err := io.ReadFull(fr.br, fr.buf); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return typ, fr.buf, nil
}

// Buffered reports the bytes buffered on the read side, used by servers to
// coalesce response flushes while more pipelined input is already waiting.
func (fr *FrameReader) Buffered() int { return fr.br.Buffered() }

// fixedLen returns payload length errors with the frame type's name.
func fixedLen(p []byte, want int, what string) error {
	if len(p) != want {
		return fmt.Errorf("wire: bad %s frame: %d payload bytes, want %d", what, len(p), want)
	}
	return nil
}

func getI32(p []byte) int32   { return int32(binary.LittleEndian.Uint32(p)) }
func getI64(p []byte) int64   { return int64(binary.LittleEndian.Uint64(p)) }
func getF64(p []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(p)) }

func decodeCellObs(p []byte, o *trace.CellObs) {
	o.PCI = cellular.PCI(getI32(p[0:]))
	o.Tech = cellular.Tech(p[4])
	o.Band = cellular.Band(p[5])
	o.RSRP = getF64(p[6:])
	o.RSRQ = getF64(p[14:])
	o.SINR = getF64(p[22:])
	o.Valid = p[30] != 0
}

// DecodeSample decodes a FrameSample payload into s.
func DecodeSample(p []byte, s *trace.Sample) error {
	if err := fixedLen(p, sampleFrameLen, "sample"); err != nil {
		return err
	}
	s.Time = time.Duration(getI64(p[0:]))
	s.X = getF64(p[8:])
	s.Y = getF64(p[16:])
	s.OdometerM = getF64(p[24:])
	s.SpeedMPS = getF64(p[32:])
	s.Arch = cellular.Arch(p[40])
	s.InHO = p[41] != 0
	s.HOType = cellular.HOType(p[42])
	s.TputMbps = getF64(p[43:])
	decodeCellObs(p[51:], &s.ServingLTE)
	decodeCellObs(p[51+cellObsLen:], &s.ServingNR)
	decodeCellObs(p[51+2*cellObsLen:], &s.NeighborLTE)
	decodeCellObs(p[51+3*cellObsLen:], &s.NeighborNR)
	return nil
}

// DecodeReport decodes a FrameReport payload into mr.
func DecodeReport(p []byte, mr *cellular.MeasurementReport) error {
	if err := fixedLen(p, reportFrameLen, "report"); err != nil {
		return err
	}
	mr.Time = time.Duration(getI64(p[0:]))
	mr.Event = cellular.EventType(p[8])
	mr.Tech = cellular.Tech(p[9])
	mr.ServingPCI = cellular.PCI(getI32(p[10:]))
	mr.NeighborPCI = cellular.PCI(getI32(p[14:]))
	mr.ServingRSRP = getF64(p[18:])
	mr.NeighborRSRP = getF64(p[26:])
	mr.Serving.RSRP = getF64(p[34:])
	mr.Serving.RSRQ = getF64(p[42:])
	mr.Serving.SINR = getF64(p[50:])
	return nil
}

// DecodeHandover decodes a FrameHO payload into ho.
func DecodeHandover(p []byte, ho *cellular.HandoverEvent) error {
	const fixedHead = 8 + 3 + 2*4 // fields before the cell-ID strings
	bad := func() error { return fmt.Errorf("wire: bad ho frame: truncated at %d payload bytes", len(p)) }
	if len(p) < fixedHead+2 {
		return bad()
	}
	ho.Time = time.Duration(getI64(p[0:]))
	ho.Type = cellular.HOType(p[8])
	ho.Arch = cellular.Arch(p[9])
	ho.Band = cellular.Band(p[10])
	ho.SourcePCI = cellular.PCI(getI32(p[11:]))
	ho.TargetPCI = cellular.PCI(getI32(p[15:]))
	q := p[fixedHead:]
	n := int(binary.LittleEndian.Uint16(q))
	if len(q) < 2+n+2 {
		return bad()
	}
	ho.SourceCell = string(q[2 : 2+n])
	q = q[2+n:]
	n = int(binary.LittleEndian.Uint16(q))
	const tail = 2*8 + 1 + 8 + 3*4 // T1 T2 CoLocated DistanceM Signaling
	if len(q) != 2+n+tail {
		return bad()
	}
	ho.TargetCell = string(q[2 : 2+n])
	q = q[2+n:]
	ho.T1 = time.Duration(getI64(q[0:]))
	ho.T2 = time.Duration(getI64(q[8:]))
	ho.CoLocated = q[16] != 0
	ho.DistanceM = getF64(q[17:])
	ho.Signaling.RRC = int(getI32(q[25:]))
	ho.Signaling.MAC = int(getI32(q[29:]))
	ho.Signaling.PHY = int(getI32(q[33:]))
	return nil
}

// DecodeResponse decodes a FrameResponse payload into r, reconstructing
// TypeName from Type.
func DecodeResponse(p []byte, r *Response) error {
	if err := fixedLen(p, responseFrameLen, "response"); err != nil {
		return err
	}
	r.Time = time.Duration(getI64(p[0:]))
	r.Type = cellular.HOType(p[8])
	r.TypeName = r.Type.String()
	r.Score = getF64(p[9:])
	r.Similarity = getF64(p[17:])
	r.LeadMS = getI64(p[25:])
	r.Seq = getI64(p[33:])
	return nil
}

// DecodeResumeAck decodes a FrameResumeAck payload into a.
func DecodeResumeAck(p []byte, a *ResumeAck) error {
	if err := fixedLen(p, resumeAckFrameLen, "resume_ack"); err != nil {
		return err
	}
	a.ResumeAck = true
	a.Resumed = p[0] != 0
	a.Seq = getI64(p[1:])
	return nil
}

// DecodeMigrateAck decodes a FrameMigrateAck payload into a.
func DecodeMigrateAck(p []byte, a *MigrateAck) error {
	if err := fixedLen(p, migrateAckFrameLen, "migrate_ack"); err != nil {
		return err
	}
	a.OK = p[0] != 0
	a.Seq = getI64(p[1:])
	return nil
}
