import json, statistics as st, sys
# Medians, parent IQR and pairs won per (workload, seed, trace) of a runs file:
#   python3 compare.py runs.jsonl
rows=[json.loads(l) for l in open(sys.argv[1])]
def q(xs):
    if len(xs)<2: return (xs[0],xs[0])
    qs=st.quantiles(xs,n=4,method='inclusive'); return qs[0],qs[2]
groups={}
for r in rows:
    groups.setdefault((r['workload'],r['seed'],r['trace']),[]).append(r)
for (w,seed,tr),rs in groups.items():
    print(f"== {w} seed {seed} trace {tr}: {len(rs)//2} pairs; failed: " + ",".join(str(x['r']['failed']) for x in rs) + "; correct: " + str(all(x['r']['correct'] for x in rs)))
    m0=rs[0]['r']['metrics']
    keys=['host_us_per_op','host_allocs_per_op','setup_s','virt_makespan_s','virt_cycle_mean_ms'] if tr==0 else ['netsim.cpu_us_per_op','pbs.cpu_us_per_op','maui.cpu_us_per_op','sim.cpu_us_per_op','host.gc_cpu_us_per_op','host.cpu_us_per_op','host.alloc_kb_per_op','host.peak_rss_mb','sim.events','netsim.msgs','maui.cycles']
    pairs={}
    for r in rs: pairs.setdefault(r['pair'],{})[r['side']]=r['r']['metrics']
    for k in keys:
        p=[pairs[i]['parent'][k]['value'] for i in sorted(pairs)]
        c=[pairs[i]['change'][k]['value'] for i in sorted(pairs)]
        wins=sum(1 for a,b in zip(p,c) if b<a); loss=sum(1 for a,b in zip(p,c) if b>a)
        lo,hi=q(p); mp,mc=st.median(p),st.median(c)
        d=100*(mc/mp-1) if mp else 0
        print(f"  {k:24s} parent med {mp:11.4f} IQR {hi-lo:9.4f} | change med {mc:11.4f} | {d:+7.2f}% | change lower {wins}/{len(p)} higher {loss}/{len(p)} | |dmed|>IQR {abs(mc-mp)>(hi-lo)}")
        if k=='host_us_per_op': print("     parent:", " ".join(f"{x:.2f}" for x in p)); print("     change:", " ".join(f"{x:.2f}" for x in c))
