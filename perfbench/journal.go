package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// journalStats describes a closed journal file from the outside: its size
// and the number of intact frames. Every record is framed as a 4-byte
// big-endian payload length and a 4-byte checksum followed by the payload.
type journalStats struct {
	bytes   int64
	records int
}

func readJournalStats(path string) (journalStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return journalStats{}, fmt.Errorf("open journal: %w", err)
	}
	defer f.Close()
	var st journalStats
	r := bufio.NewReaderSize(f, 1<<16)
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return st, nil
			}
			return st, fmt.Errorf("journal frame %d: %w", st.records, err)
		}
		n := int64(binary.BigEndian.Uint32(hdr[:4]))
		if _, err := r.Discard(int(n)); err != nil {
			return st, fmt.Errorf("journal frame %d: %w", st.records, err)
		}
		st.records++
		st.bytes += 8 + n
	}
}
