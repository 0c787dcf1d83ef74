module Tcp = Xmp_transport.Tcp
module Queue_disc = Xmp_net.Queue_disc

let bos () = Bos.make ()

let bos_params (p : Params.t) =
  { Bos.default_params with beta = p.Params.beta }

let tcp_config = { Tcp.ecn_config with echo = Tcp.Counted (Some 3) }
let dctcp_tcp_config = { Tcp.ecn_config with echo = Tcp.Counted None }
let plain_tcp_config = Tcp.default_config

let switch_disc ?(params = Params.default) ?(queue_pkts = 100) () () =
  Queue_disc.create
    ~policy:(Queue_disc.Threshold_mark params.Params.k)
    ~capacity_pkts:queue_pkts

let flow ~net ~flow ~src ~dst ~paths ?size_segments ?observer () =
  let coupling = Trash.coupling () in
  Xmp_mptcp.Mptcp_flow.create ~net ~flow ~src ~dst ~paths ~coupling
    ~config:tcp_config ?size_segments ?observer ()
