package service

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// FuzzBuildJob feeds arbitrary bytes through the submit path short of
// the queue: JSON decoded the way POST /jobs decodes it, then buildJob.
// Neither may panic; a bad request is an error. Plain `go test` runs
// the seeds: the job requests the service tests and the lynxd smoke
// script submit, good and bad.
func FuzzBuildJob(f *testing.F) {
	for _, s := range []string{
		`{"kind":"load","client":"smoke","load":{"substrates":["charlotte"],"rates":[40],"window":"200ms","seed":1}}`,
		`{"kind":"load","client":"smoke","load":{"substrates":["charlotte"],"rates":[40],"window":"200ms","seed":1,"faults":["drop10"]}}`,
		`{"kind":"load","load":{"substrates":["soda"],"rates":[40],"window":"200ms","faults":["default","crash(u1.*,60ms)"]}}`,
		`{"kind":"load","client":"smoke","load":{"substrates":["charlotte"],"rates":[25],"window":"200ms","seed":1,"trace":"sampled"}}`,
		`{"kind":"load","load":{"substrates":["soda"],"rates":[30,60],"window":"100ms","mix":"echo=1"}}`,
		`{"kind":"grid","client":"tester","grid":{"body":"echo","axes":[{"name":"payload","values":[64,1024]},{"name":"substrate","values":["charlotte","soda"]}],"replicas":2,"seed":7}}`,
		`{"kind":"grid","grid":{"body":"echo","axes":[{"name":"payload","values":[64]}]}}`,
		`{"kind":"grid","grid":{"body":"mystery"}}`,
		`{"kind":"expt","expt":{"id":"E1","reps":1,"seed":1}}`,
		`{"kind":"expt","expt":{"id":"all"}}`,
		`{"kind":"expt","expt":{"id":"E99"}}`,
		`{"kind":"expt"}`,
		`{"kind":"nope"}`,
		`{"kind":"load","load":{"substrates":["warp"],"rates":[1]}}`,
		`{"kind":"load","load":{"substrates":["soda"],"rates":[1],"window":"banana"}}`,
		`{"kind":"load","load":{"substrates":["soda"],"rates":[-1e308],"window":"-1s"}}`,
		`{"kind":"grid","grid":{"body":"echo","axes":[{"name":"payload","values":[null,[1],{"a":1}]},{"name":"substrate","values":[1e300]}]}}`,
		`{}`, `null`, `[]`, ``,
	} {
		f.Add([]byte(s))
	}
	s := New(Config{Workers: 1})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, data []byte) {
		var req JobRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		j, err := s.buildJob(req, "fuzz", time.Unix(0, 0))
		if err == nil {
			j.cancel()
		}
	})
}
