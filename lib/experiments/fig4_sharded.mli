(** The Figure-4 traffic-shifting experiment restaged on a pod-sharded
    k=4 fat tree ({!Xmp_net.Fat_tree} on a 4-shard cluster): Flow 2's
    two subflows leave pod 0 through different aggregation switches, and
    pod-local background flows load first one uplink then the other.
    Exercises the split sender/receiver transport and the core-layer
    portals; the [domains] argument never changes the output bytes. *)

type result = {
  beta : int;
  domains : int;
  bucket_s : float;
  rates : (string * float array) list;
  loaded_share : float;
  recovered_share : float;
  events : int;
  mail : int;
}

val seed : int
(** [run]'s default seed, which the scenario registry pins. *)

val run :
  ?scale:float -> ?seed:int -> ?domains:int -> beta:int -> unit -> result

val run_and_print : ?scale:float -> ?domains:int -> unit -> unit
