// Command lynxctl is the thin client for the lynxd daemon: submit a
// job, watch its JSONL stream, extract the verbatim result table,
// check status, or cancel.
//
//	lynxctl submit '{"kind":"load","load":{"substrates":["charlotte"],"rates":[30,60],"window":"100ms","seed":1}}'
//	lynxctl submit -f job.json
//	echo '{...}' | lynxctl submit
//	lynxctl stream j000001          # full stream: envelopes + result lines
//	lynxctl result j000001          # only the verbatim result table (CLI bytes)
//	lynxctl status j000001
//	lynxctl list
//	lynxctl cancel j000001
//	lynxctl metrics                 # service counters
//	lynxctl metrics j000001         # one job's pooled metric rollup
//
// The daemon address comes from -addr or LYNXD_ADDR (default
// http://127.0.0.1:8077).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"repro/internal/cli"
)

const usage = `usage: lynxctl [-addr URL] <command> [args]

commands:
  submit [-f FILE | JSON]   submit a job request (stdin when neither given)
  status ID                 one job's status
  list                      all job statuses
  stream ID                 follow the job's JSONL stream to completion
  result ID                 print only the verbatim result lines
  cancel ID                 request cancellation
  metrics [ID]              service counters, or one job's metric rollup`

func main() {
	addr := flag.String("addr", cli.DaemonAddr(), "lynxd base URL")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, usage)
		fmt.Fprintln(os.Stderr, "\nflags:")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		cli.Usagef("lynxctl", "no command\n%s", usage)
	}
	base := strings.TrimRight(*addr, "/")
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "submit":
		runSubmit(base, rest)
	case "status":
		runGet(base, rest, "status", func(id string) string { return "/jobs/" + id })
	case "list":
		if len(rest) != 0 {
			cli.Usagef("lynxctl", "list takes no arguments")
		}
		get(base + "/jobs")
	case "stream":
		runStream(base, rest, false)
	case "result":
		runStream(base, rest, true)
	case "cancel":
		runCancel(base, rest)
	case "metrics":
		if len(rest) == 0 {
			get(base + "/metrics")
		} else {
			runGet(base, rest, "metrics", func(id string) string { return "/jobs/" + id + "/metrics" })
		}
	default:
		cli.Usagef("lynxctl", "unknown command %q\n%s", cmd, usage)
	}
}

// fail reports the error payload of a non-2xx response and exits 1.
func fail(resp *http.Response) {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	msg := strings.TrimSpace(string(body))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		msg += " (Retry-After: " + ra + "s)"
	}
	cli.Failf("lynxctl", "%s: %s", resp.Status, msg)
}

// get prints one JSON endpoint's body.
func get(url string) {
	resp, err := http.Get(url)
	cli.Check("lynxctl", err)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fail(resp)
	}
	_, err = io.Copy(os.Stdout, resp.Body)
	cli.Check("lynxctl", err)
}

func runGet(base string, rest []string, name string, path func(id string) string) {
	if len(rest) != 1 {
		cli.Usagef("lynxctl", "%s needs exactly one job id", name)
	}
	get(base + path(rest[0]))
}

// runSubmit reads the JobRequest JSON (inline argument, -f file, or
// stdin), posts it, and prints the accepted JobStatus.
func runSubmit(base string, rest []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	file := fs.String("f", "", "read the job request from this file")
	fs.Parse(rest)
	var body []byte
	var err error
	switch {
	case *file != "" && fs.NArg() > 0:
		cli.Usagef("lynxctl", "submit: give either -f FILE or inline JSON, not both")
	case *file != "":
		body, err = os.ReadFile(*file)
	case fs.NArg() == 1:
		body = []byte(fs.Arg(0))
	case fs.NArg() == 0:
		body, err = io.ReadAll(os.Stdin)
	default:
		cli.Usagef("lynxctl", "submit takes at most one inline JSON argument")
	}
	cli.Check("lynxctl", err)
	if !json.Valid(body) {
		cli.Usagef("lynxctl", "submit: request is not valid JSON")
	}
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(string(body)))
	cli.Check("lynxctl", err)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		fail(resp)
	}
	_, err = io.Copy(os.Stdout, resp.Body)
	cli.Check("lynxctl", err)
}

// runStream follows a job's stream. resultOnly extracts just the
// verbatim result lines — the bytes the equivalent CLI run prints — and
// exits 1 when the job did not finish done.
func runStream(base string, rest []string, resultOnly bool) {
	name := "stream"
	if resultOnly {
		name = "result"
	}
	if len(rest) != 1 {
		cli.Usagef("lynxctl", "%s needs exactly one job id", name)
	}
	resp, err := http.Get(base + "/jobs/" + rest[0] + "/stream")
	cli.Check("lynxctl", err)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fail(resp)
	}
	if !resultOnly {
		_, err = io.Copy(os.Stdout, resp.Body)
		cli.Check("lynxctl", err)
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	pending := 0
	finalState, finalErr := "", ""
	for sc.Scan() {
		line := sc.Text()
		if pending > 0 {
			fmt.Println(line)
			pending--
			continue
		}
		var env struct {
			Type  string `json:"type"`
			Lines int    `json:"lines"`
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(line), &env); err != nil {
			cli.Failf("lynxctl", "bad stream line %q: %v", line, err)
		}
		switch env.Type {
		case "result":
			pending = env.Lines
		case "done":
			finalState, finalErr = env.State, env.Error
		}
	}
	cli.Check("lynxctl", sc.Err())
	if finalState != "done" {
		cli.Failf("lynxctl", "job ended %s: %s", finalState, finalErr)
	}
}

func runCancel(base string, rest []string) {
	if len(rest) != 1 {
		cli.Usagef("lynxctl", "cancel needs exactly one job id")
	}
	req, err := http.NewRequest(http.MethodDelete, base+"/jobs/"+rest[0], nil)
	cli.Check("lynxctl", err)
	resp, err := http.DefaultClient.Do(req)
	cli.Check("lynxctl", err)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fail(resp)
	}
	_, err = io.Copy(os.Stdout, resp.Body)
	cli.Check("lynxctl", err)
}
