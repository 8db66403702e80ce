package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// WriteSpans dumps the retained completed spans as JSON Lines, oldest
// first.
func (o *Observer) WriteSpans(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, sp := range o.Spans() {
		if err := enc.Encode(sp); err != nil {
			return fmt.Errorf("obs: span encode: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("obs: span flush: %w", err)
	}
	return nil
}
