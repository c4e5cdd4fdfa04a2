// Small encoding helpers shared by the session and query layers.

package runlog

import (
	"bytes"
	"encoding/json"

	"senkf/internal/trace"
)

// jsonMarshalIndent renders v the way every archived JSON file is stored:
// two-space indent with a trailing newline.
func jsonMarshalIndent(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// chromeBytes renders events as Chrome trace-event JSON.
func chromeBytes(events []trace.Event) ([]byte, error) {
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, events); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
