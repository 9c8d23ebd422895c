// Bank: a sharded account service in which every account IS a link.
//
// The shard hosting an account serves the account's link end; the client
// holds the other end and deposits/queries over it with typed RPC. When
// the bank rebalances, the hosting shard ships the account's serving end
// (plus its balance) to the other shard — and the client's end of the
// "hose" keeps working without the client ever learning that the far end
// moved. This is §2.1's movable-links model doing real work: on SODA the
// client's first post-migration call is transparently redirected by the
// hint machinery; on Chrysalis the memory object is remapped; on
// Charlotte the kernel runs its move protocol.
//
//	go run ./examples/bank
//	go run ./examples/bank -substrate chrysalis -accounts 6 -migrations 4
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/cli"
	"repro/lynx"
	"repro/lynx/codec"
)

func main() {
	subName := flag.String("substrate", "soda", "charlotte|soda|chrysalis|ideal")
	nAccounts := flag.Int("accounts", 4, "accounts to open")
	nMigrations := flag.Int("migrations", 3, "account migrations to perform")
	deposits := flag.Int("deposits", 5, "deposits per account")
	flag.Parse()
	sub, err := lynx.ParseSubstrate(*subName)
	cli.CheckUsage("bank", err)
	runBank(sub, *nAccounts, *nMigrations, *deposits)
}

func runBank(sub lynx.Substrate, nAccounts, nMigrations, deposits int) {
	sys := lynx.NewSystem(lynx.Config{Substrate: sub, Seed: 1})

	type account struct {
		balance int64
		end     *lynx.End // serving end, owned by the hosting shard
	}

	// --- Shards ------------------------------------------------------
	shardNames := []string{"shard-0", "shard-1"}
	shards := make([]*lynx.ProcRef, 2)
	for i := range shards {
		name := shardNames[i]
		shards[i] = sys.Spawn(name, func(t *lynx.Thread, boot []*lynx.End) {
			dirLink := boot[0]
			accounts := map[string]*account{}

			serveAccount := func(at *lynx.Thread, owner string, acc *account) {
				lynx.ServeEntries(at, acc.end, lynx.Entries{
					"deposit": func(ht *lynx.Thread, req *lynx.Request) (lynx.Msg, error) {
						var amount int64
						if err := codec.Unmarshal(req.Data(), &amount); err != nil {
							return lynx.Msg{}, err
						}
						acc.balance += amount
						return lynx.Msg{Data: codec.MustMarshal(acc.balance)}, nil
					},
					"balance": func(ht *lynx.Thread, req *lynx.Request) (lynx.Msg, error) {
						return lynx.Msg{Data: codec.MustMarshal(acc.balance, name)}, nil
					},
				})
			}

			lynx.ServeEntries(t, dirLink, lynx.Entries{
				// host: create an account here; the client's end of the
				// fresh link travels back through the directory.
				"host": func(ht *lynx.Thread, req *lynx.Request) (lynx.Msg, error) {
					var owner string
					if err := codec.Unmarshal(req.Data(), &owner); err != nil {
						return lynx.Msg{}, err
					}
					mine, theirs, err := ht.NewLink()
					if err != nil {
						return lynx.Msg{}, err
					}
					acc := &account{end: mine}
					accounts[owner] = acc
					serveAccount(ht, owner, acc)
					fmt.Printf("%-8s hosts account %q\n", name, owner)
					return lynx.Msg{Links: []*lynx.End{theirs}}, nil
				},
				// migrate-out: stop serving and ship the serving end plus
				// the balance back through the directory, which forwards
				// both to the other shard.
				"migrate-out": func(ht *lynx.Thread, req *lynx.Request) (lynx.Msg, error) {
					var owner string
					if err := codec.Unmarshal(req.Data(), &owner); err != nil {
						return lynx.Msg{}, err
					}
					acc, ok := accounts[owner]
					if !ok {
						return lynx.Msg{}, fmt.Errorf("%s does not host %q", name, owner)
					}
					delete(accounts, owner)
					// Deregister the handler: the end must be quiescent
					// (no open queue) to be movable.
					ht.Process().ServeEnd(acc.end, nil)
					fmt.Printf("%-8s migrates %q out (balance %d)\n", name, owner, acc.balance)
					return lynx.Msg{
						Data:  codec.MustMarshal(owner, acc.balance),
						Links: []*lynx.End{acc.end},
					}, nil
				},
				// migrate-in: adopt a moved account and resume serving.
				"migrate-in": func(ht *lynx.Thread, req *lynx.Request) (lynx.Msg, error) {
					var owner string
					var balance int64
					if err := codec.Unmarshal(req.Data(), &owner, &balance); err != nil {
						return lynx.Msg{}, err
					}
					acc := &account{balance: balance, end: req.Links()[0]}
					accounts[owner] = acc
					serveAccount(ht, owner, acc)
					fmt.Printf("%-8s migrates %q in  (balance %d)\n", name, owner, balance)
					return lynx.Msg{}, nil
				},
			})
		})
	}

	// --- Directory ---------------------------------------------------
	dir := sys.Spawn("directory", func(t *lynx.Thread, boot []*lynx.End) {
		shardLinks := boot[:2] // joined first in the wiring below
		clientLinks := boot[2:]
		hostedAt := map[string]int{}
		next := 0

		for _, cl := range clientLinks {
			lynx.ServeEntries(t, cl, lynx.Entries{
				"open": func(ht *lynx.Thread, req *lynx.Request) (lynx.Msg, error) {
					var owner string
					if err := codec.Unmarshal(req.Data(), &owner); err != nil {
						return lynx.Msg{}, err
					}
					shard := next % 2
					next++
					reply, err := lynx.Call(ht, shardLinks[shard], "host",
						lynx.Msg{Data: codec.MustMarshal(owner)})
					if err != nil {
						return lynx.Msg{}, err
					}
					hostedAt[owner] = shard
					return lynx.Msg{Links: reply.Links}, nil
				},
			})
		}

		// Rebalancer: periodically move the alphabetically-first account
		// to the other shard, while clients keep depositing.
		t.Fork("rebalancer", func(rt *lynx.Thread) {
			for i := 0; i < nMigrations; i++ {
				rt.Sleep(400 * lynx.Millisecond)
				var owner string
				for o := range hostedAt {
					if owner == "" || o < owner {
						owner = o
					}
				}
				if owner == "" {
					continue
				}
				from := hostedAt[owner]
				to := 1 - from
				out, err := lynx.Call(rt, shardLinks[from], "migrate-out",
					lynx.Msg{Data: codec.MustMarshal(owner)})
				if err != nil {
					log.Printf("migrate-out %q: %v", owner, err)
					continue
				}
				var balance int64
				if err := codec.Unmarshal(out.Data, &owner, &balance); err != nil {
					log.Printf("migrate decode: %v", err)
					continue
				}
				if _, err := lynx.Call(rt, shardLinks[to], "migrate-in",
					lynx.Msg{Data: codec.MustMarshal(owner, balance), Links: out.Links}); err != nil {
					log.Printf("migrate-in %q: %v", owner, err)
					continue
				}
				hostedAt[owner] = to
			}
		})
	})

	// Wiring: the directory's first two boot links must be the shards.
	sys.Join(dir, shards[0])
	sys.Join(dir, shards[1])

	// --- Clients -----------------------------------------------------
	totals := make([]int64, nAccounts)
	finalShards := make([]string, nAccounts)
	for i := 0; i < nAccounts; i++ {
		i := i
		owner := fmt.Sprintf("acct-%02d", i)
		cl := sys.Spawn("client-"+owner, func(t *lynx.Thread, boot []*lynx.End) {
			reply, err := lynx.Call(t, boot[0], "open", lynx.Msg{Data: codec.MustMarshal(owner)})
			if err != nil {
				log.Fatalf("%s open: %v", owner, err)
			}
			acct := reply.Links[0] // our end of the account hose
			for d := 0; d < deposits; d++ {
				amount := int64(10 * (i + 1))
				r, err := lynx.Call(t, acct, "deposit", lynx.Msg{Data: codec.MustMarshal(amount)})
				if err != nil {
					log.Fatalf("%s deposit: %v", owner, err)
				}
				if err := codec.Unmarshal(r.Data, &totals[i]); err != nil {
					log.Fatalf("%s decode: %v", owner, err)
				}
				t.Sleep(300 * lynx.Millisecond) // migrations interleave here
			}
			var where string
			r, err := lynx.Call(t, acct, "balance", lynx.Msg{})
			if err != nil {
				log.Fatalf("%s balance: %v", owner, err)
			}
			if err := codec.Unmarshal(r.Data, &totals[i], &where); err != nil {
				log.Fatalf("%s decode: %v", owner, err)
			}
			finalShards[i] = where
			t.Destroy(acct)
			t.Destroy(boot[0])
		})
		sys.Join(dir, cl)
	}

	if err := sys.RunFor(120 * lynx.Second); err != nil {
		for _, sh := range shards {
			fmt.Print(sh.DebugState())
		}
		fmt.Print(dir.DebugState())
		log.Fatal(err)
	}
	fmt.Println()
	var grand, expect int64
	for i := 0; i < nAccounts; i++ {
		fmt.Printf("acct-%02d: balance %4d (served finally by %s)\n", i, totals[i], finalShards[i])
		grand += totals[i]
		expect += int64(10 * (i + 1) * deposits)
	}
	fmt.Printf("total %d (expected %d) on %v at %v virtual\n", grand, expect, sub, sys.Now())
	if grand != expect {
		log.Fatal("BALANCE MISMATCH: money was lost or duplicated in migration")
	}
}
