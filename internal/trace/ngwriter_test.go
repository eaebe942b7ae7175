package trace

import (
	"bufio"
	"encoding/binary"
	"io"

	"repro/internal/vtime"
)

// NgWriter writes a pcapng file with one Ethernet interface and
// nanosecond timestamps: the tests' source of well-formed input for the
// reader.
type NgWriter struct {
	w     *bufio.Writer
	count uint64
	hdr   [28]byte // EPB header scratch, reused per packet
}

// NewNgWriter emits the section header and interface description and
// returns a writer. snaplen 0 means unlimited.
func NewNgWriter(w io.Writer, snaplen uint32) (*NgWriter, error) {
	bw := bufio.NewWriter(w)
	// Section Header Block: type, len, byte-order magic, version 1.0,
	// section length -1 (unknown), trailing len.
	shb := make([]byte, 28)
	binary.LittleEndian.PutUint32(shb[0:4], blockSHB)
	binary.LittleEndian.PutUint32(shb[4:8], 28)
	binary.LittleEndian.PutUint32(shb[8:12], ngByteOrderMagic)
	binary.LittleEndian.PutUint16(shb[12:14], 1)
	binary.LittleEndian.PutUint64(shb[16:24], ^uint64(0))
	binary.LittleEndian.PutUint32(shb[24:28], 28)
	if _, err := bw.Write(shb); err != nil {
		return nil, err
	}
	// Interface Description Block with an if_tsresol option (10^-9).
	// Options: code 9 (if_tsresol), len 1, value 9, pad 3; end-of-options.
	idb := make([]byte, 32)
	binary.LittleEndian.PutUint32(idb[0:4], blockIDB)
	binary.LittleEndian.PutUint32(idb[4:8], 32)
	binary.LittleEndian.PutUint16(idb[8:10], LinkTypeEthernet)
	binary.LittleEndian.PutUint32(idb[12:16], snaplen)
	binary.LittleEndian.PutUint16(idb[16:18], 9) // if_tsresol
	binary.LittleEndian.PutUint16(idb[18:20], 1)
	idb[20] = 9 // nanoseconds
	// 3 pad bytes, then opt_endofopt (0,0).
	binary.LittleEndian.PutUint32(idb[28:32], 32)
	if _, err := bw.Write(idb); err != nil {
		return nil, err
	}
	return &NgWriter{w: bw}, nil
}

// WritePacket appends one frame as an Enhanced Packet Block.
func (w *NgWriter) WritePacket(ts vtime.Time, frame []byte) error {
	pad := (4 - len(frame)%4) % 4
	total := 32 + len(frame) + pad
	hdr := w.hdr[:]
	binary.LittleEndian.PutUint32(hdr[0:4], blockEPB)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(total))
	binary.LittleEndian.PutUint32(hdr[8:12], 0) // interface 0
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(uint64(ts)>>32))
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(uint64(ts)))
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(len(frame)))
	binary.LittleEndian.PutUint32(hdr[24:28], uint32(len(frame)))
	if _, err := w.w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.w.Write(frame); err != nil {
		return err
	}
	var tail [8]byte
	binary.LittleEndian.PutUint32(tail[pad:pad+4], uint32(total))
	if _, err := w.w.Write(tail[:pad+4]); err != nil {
		return err
	}
	w.count++
	return nil
}

// Count returns packets written.
func (w *NgWriter) Count() uint64 { return w.count }

// Flush flushes buffered output.
func (w *NgWriter) Flush() error { return w.w.Flush() }
