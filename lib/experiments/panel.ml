module Sim = Xmp_engine.Sim
module Time = Xmp_engine.Time
module Net = Xmp_net
module Scheme = Xmp_workload.Scheme

type geometry = {
  hosts : int;
  rates : Net.Units.rate list;
  delay : Time.t;
  access_delay : Time.t;
}

let zero_load_rtt g = Time.mul 2 (Time.add (Time.mul 2 g.access_delay) g.delay)

let testbed g ~net ~disc =
  Net.Testbed.create ~net ~n_left:g.hosts ~n_right:g.hosts
    ~bottlenecks:
      (List.map (fun rate -> { Net.Testbed.rate; delay = g.delay; disc }) g.rates)
    ~access_delay:g.access_delay ()

type env = {
  sim : Sim.t;
  net : Net.Network.t;
  testbed : Net.Testbed.t;
  probe : Probe.t;
}

let run g ~seed ~telemetry ~faults ~queue ~capacity_pkts ~bucket_s ~horizon_s
    schedule =
  let config = { Sim.seed; telemetry } in
  let cluster = Net.Shard.create ~config ~shards:1 () in
  let sim = Net.Shard.sim cluster 0 and net = Net.Shard.net cluster 0 in
  let disc () = Net.Queue_disc.create ~policy:queue ~capacity_pkts in
  let testbed = testbed g ~net ~disc in
  ignore (Xmp_faults.Injector.install ~net faults);
  let probe = Probe.create ~sim ~bucket_s ~horizon_s in
  let finish = schedule { sim; net; testbed; probe } in
  Net.Shard.run ~until:(Time.sec horizon_s) cluster;
  finish ()

let flow env ?observer ~flow ~host ~paths launcher =
  Scheme.launch ~net:env.net ~flow
    ~src:(Net.Testbed.left_id env.testbed host)
    ~dst:(Net.Testbed.right_id env.testbed host)
    ~paths ?observer launcher

let series env names =
  let recorders = Array.of_list (List.map (Probe.recorder env.probe) names) in
  { Scheme.silent with on_subflow_acked = (fun idx n -> recorders.(idx) n) }
