(* Fork-based scenario execution. This is the one module allowed to use
   Unix and the wall clock in lib/ (see xmplint's file allowlist): it
   never touches simulated state, it only schedules whole deterministic
   simulations across processes and times them for progress output. *)

type cache_mode = No_cache | Cache_dir of string

type outcome = {
  scenario : Scenario.t;
  digest : string;
  output : string;
  from_cache : bool;
  elapsed_s : float;
  events : int;
}

type stats = { hits : int; misses : int; wall_s : float }

(* ------------------------------------------------------------------ *)
(* small IO helpers                                                    *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec write_all fd s off len =
  if len > 0 then begin
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len
  end

let send_line fd line = write_all fd (line ^ "\n") 0 (String.length line + 1)

let rec read_some fd bytes =
  match Unix.read fd bytes 0 (Bytes.length bytes) with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_some fd bytes

(* ------------------------------------------------------------------ *)
(* stdout capture (fd level, so Printf.printf is caught)               *)

let capture_to_file path f =
  flush Stdlib.stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let restore () =
    flush Stdlib.stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved
  in
  match f () with
  | () -> restore ()
  | exception e ->
    restore ();
    raise e

let capture f =
  let tmp = Filename.temp_file "xmp_capture_" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      capture_to_file tmp f;
      read_file tmp)

(* ------------------------------------------------------------------ *)
(* worker child                                                        *)

(* Protocol: parent sends one scenario index per line on the work pipe
   ("q" = no more work); the child runs it with stdout captured into
   result_file(i) and answers "<i> <elapsed_s> <events>" on the done
   pipe, where <events> is the number of simulation events the scenario
   executed (the process-wide counter delta, so it also covers nested
   simulations). A scenario that raises is answered "<i> raised <text>"
   (one line, at most 512 bytes), and the child exits. All messages are
   far below PIPE_BUF, so writes are atomic. *)

let child_loop scenarios ~result_file ~work_r ~done_w =
  let ic = Unix.in_channel_of_descr work_r in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> 0
    | "q" -> 0
    | line -> (
      let i = int_of_string line in
      let sc = scenarios.(i) in
      let t0 = Unix.gettimeofday () in
      let e0 = Xmp_engine.Sim.total_events_executed () in
      match capture_to_file (result_file i) sc.Scenario.run with
      | () ->
        send_line done_w
          (Printf.sprintf "%d %.6f %d" i
             (Unix.gettimeofday () -. t0)
             (Xmp_engine.Sim.total_events_executed () - e0));
        loop ()
      | exception e ->
        let text = String.map (function '\n' -> ' ' | c -> c) (Printexc.to_string e) in
        let text = if String.length text > 512 then String.sub text 0 512 else text in
        send_line done_w (Printf.sprintf "%d raised %s" i text);
        1)
  in
  let status = loop () in
  (* _exit: skip the parent's inherited at_exit handlers (alcotest, dune,
     channel flushers) — everything this child owns is already flushed *)
  Unix._exit status

(* ------------------------------------------------------------------ *)
(* parent-side worker pool                                             *)

type worker = {
  pid : int;
  work_w : Unix.file_descr;
  done_r : Unix.file_descr;
  rbuf : Buffer.t;
  mutable running : int option;  (* scenario index in flight *)
  mutable draining : bool;  (* "q" sent, work_w closed *)
  mutable exited : Unix.process_status option;  (* reaped *)
}

let spawn scenarios ~result_file =
  let work_r, work_w = Unix.pipe ~cloexec:false () in
  let done_r, done_w = Unix.pipe ~cloexec:false () in
  flush Stdlib.stdout;
  flush Stdlib.stderr;
  match Unix.fork () with
  | 0 ->
    Unix.close work_w;
    Unix.close done_r;
    child_loop scenarios ~result_file ~work_r ~done_w
  | pid ->
    Unix.close work_r;
    Unix.close done_w;
    { pid; work_w; done_r; rbuf = Buffer.create 64; running = None;
      draining = false; exited = None }

let quit w =
  if not w.draining then begin
    w.draining <- true;
    (try send_line w.work_w "q"
     with Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) -> ());
    try Unix.close w.work_w with Unix.Unix_error _ -> ()
  end

(* OCaml numbers signals its own way (Sys.sigkill = -7); report the
   POSIX number, the one the kernel and kill(1) use. *)
let signal_number s =
  let posix =
    [ (Sys.sighup, 1); (Sys.sigint, 2); (Sys.sigquit, 3); (Sys.sigill, 4);
      (Sys.sigabrt, 6); (Sys.sigfpe, 8); (Sys.sigkill, 9); (Sys.sigsegv, 11);
      (Sys.sigpipe, 13); (Sys.sigalrm, 14); (Sys.sigterm, 15) ]
  in
  Option.value (List.assoc_opt s posix) ~default:s

(* Waits for the worker once; later calls return the same status. *)
let reap w =
  match w.exited with
  | Some status -> status
  | None ->
    quit w;
    (try Unix.close w.done_r with Unix.Unix_error _ -> ());
    let _, status = Unix.waitpid [] w.pid in
    w.exited <- Some status;
    status

let describe = function
  | Unix.WEXITED c -> Printf.sprintf "exited %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" (signal_number s)
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" (signal_number s)

(* Runs [pending] (scenario indices) over [jobs] workers; calls
   [on_done i elapsed] in the parent as each finishes, in completion
   order. *)
let execute_pool scenarios ~jobs ~result_file ~pending ~on_done =
  let queue = Queue.create () in
  List.iter (fun i -> Queue.add i queue) pending;
  let n_workers = min jobs (Queue.length queue) in
  let workers = List.init n_workers (fun _ -> spawn scenarios ~result_file) in
  let assign w =
    match Queue.take_opt queue with
    | Some i ->
      w.running <- Some i;
      send_line w.work_w (string_of_int i)
    | None ->
      w.running <- None;
      quit w
  in
  let failure = ref None in
  let fail msg = if Option.is_none !failure then failure := Some msg in
  (try
     List.iter assign workers;
     let buf = Bytes.create 4096 in
     let rec pump () =
       let busy = List.filter (fun w -> Option.is_some w.running) workers in
       if busy <> [] && Option.is_none !failure then begin
         let ready, _, _ =
           Unix.select (List.map (fun w -> w.done_r) busy) [] [] (-1.0)
         in
         List.iter
           (fun w ->
             if List.mem w.done_r ready then begin
               let n = read_some w.done_r buf in
               if n = 0 then begin
                 let name =
                   match w.running with
                   | Some i -> scenarios.(i).Scenario.name
                   | None -> "?"
                 in
                 w.running <- None;
                 fail
                   (Printf.sprintf "scenario %s: worker %s" name
                      (describe (reap w)))
               end
               else begin
                 Buffer.add_subbytes w.rbuf buf 0 n;
                 (* complete lines in rbuf are finished scenarios *)
                 let s = Buffer.contents w.rbuf in
                 match String.rindex_opt s '\n' with
                 | None -> ()
                 | Some last ->
                   Buffer.clear w.rbuf;
                   Buffer.add_string w.rbuf
                     (String.sub s (last + 1) (String.length s - last - 1));
                   String.split_on_char '\n' (String.sub s 0 last)
                   |> List.iter (fun line ->
                          match String.split_on_char ' ' line with
                          | i :: "raised" :: text ->
                            w.running <- None;
                            fail
                              (Printf.sprintf "scenario %s raised %s"
                                 scenarios.(int_of_string i).Scenario.name
                                 (String.concat " " text))
                          | [ i; dt; ev ] ->
                            on_done (int_of_string i) (float_of_string dt)
                              (int_of_string ev);
                            assign w
                          | _ -> fail ("bad worker message: " ^ line))
               end
             end)
           busy;
         pump ()
       end
     in
     pump ()
   with e -> fail (Printexc.to_string e));
  (* tear down: on failure, kill whatever is still running *)
  if Option.is_some !failure then
    List.iter
      (fun w ->
        if Option.is_some w.running then
          try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ())
      workers;
  List.iter
    (fun w ->
      match reap w with
      | Unix.WEXITED 0 -> ()
      | status -> fail (Printf.sprintf "worker %d %s" w.pid (describe status)))
    workers;
  match !failure with
  | Some msg -> failwith ("Runner: " ^ msg)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* top level                                                           *)

let progress_line fmt = Printf.eprintf fmt

let with_tmpdir f =
  (* mkdtemp is not in the stdlib: reserve a name via temp_file, then
     swap the file for a directory *)
  let marker = Filename.temp_file "xmp_runner_" ".d" in
  Sys.remove marker;
  Sys.mkdir marker 0o700;
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun f -> Sys.remove (Filename.concat marker f))
           (Sys.readdir marker)
       with Sys_error _ -> ());
      try Sys.rmdir marker with Sys_error _ -> ())
    (fun () -> f marker)

let run ?(jobs = 1) ?(cache = Cache_dir Cache.default_dir) ?(progress = true)
    ?(on_outcome = fun _ -> ()) scenario_list =
  let t0 = Unix.gettimeofday () in
  let jobs = if jobs < 1 then 1 else jobs in
  let scenarios = Array.of_list scenario_list in
  let n = Array.length scenarios in
  let digests = Array.map Scenario.digest scenarios in
  let outcomes : outcome option array = Array.make n None in
  (* ordered streaming: emit outcome i only once 0..i-1 have emitted *)
  let next_emit = ref 0 in
  let emit_ready () =
    while !next_emit < n && Option.is_some outcomes.(!next_emit) do
      (match outcomes.(!next_emit) with
      | Some o -> on_outcome o
      | None -> assert false);
      incr next_emit
    done
  in
  let hits = ref 0 in
  let settle i ~output ~from_cache ~elapsed_s ~events =
    outcomes.(i) <-
      Some
        {
          scenario = scenarios.(i);
          digest = digests.(i);
          output;
          from_cache;
          elapsed_s;
          events;
        };
    emit_ready ()
  in
  (* cache probe; duplicate digests within one run simulate only once *)
  let first_of_digest = Hashtbl.create 16 in
  let pending = ref [] in
  for i = 0 to n - 1 do
    let cached =
      match cache with
      | No_cache -> None
      | Cache_dir dir -> Cache.load ~dir ~key:digests.(i)
    in
    match cached with
    | Some output ->
      incr hits;
      if progress then
        progress_line "[runner] %-18s cache hit  (%s)\n%!"
          scenarios.(i).Scenario.name
          (String.sub digests.(i) 0 8);
      settle i ~output ~from_cache:true ~elapsed_s:0. ~events:0
    | None ->
      if not (Hashtbl.mem first_of_digest digests.(i)) then begin
        Hashtbl.add first_of_digest digests.(i) i;
        pending := i :: !pending
      end
  done;
  let pending = List.rev !pending in
  let done_count = ref 0 in
  let n_to_run = List.length pending in
  with_tmpdir (fun tmpdir ->
      let result_file i = Filename.concat tmpdir ("out." ^ string_of_int i) in
      let on_done i elapsed_s events =
        let output = read_file (result_file i) in
        (match cache with
        | No_cache -> ()
        | Cache_dir dir -> Cache.store ~dir ~key:digests.(i) output);
        incr done_count;
        if progress then
          progress_line
            "[runner] %-18s finished in %6.1fs  %9d events  (%d/%d)\n%!"
            scenarios.(i).Scenario.name elapsed_s events !done_count n_to_run;
        (* settle every scenario sharing this digest *)
        Array.iteri
          (fun j d ->
            if String.equal d digests.(i) && Option.is_none outcomes.(j) then
              settle j ~output ~from_cache:false ~elapsed_s ~events)
          digests
      in
      if pending <> [] then begin
        let prev_sigpipe =
          (* a worker dying between assignment and write must surface as
             EPIPE, not kill the parent *)
          try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
          with Invalid_argument _ -> None
        in
        Fun.protect
          ~finally:(fun () ->
            match prev_sigpipe with
            | Some b -> Sys.set_signal Sys.sigpipe b
            | None -> ())
          (fun () ->
            execute_pool scenarios ~jobs ~result_file ~pending ~on_done)
      end);
  let wall_s = Unix.gettimeofday () -. t0 in
  let stats = { hits = !hits; misses = n - !hits; wall_s } in
  if progress then
    progress_line
      "[runner] cache: %d hit%s, %d miss%s; %d job%s; wall %.1fs\n%!"
      stats.hits
      (if stats.hits = 1 then "" else "s")
      stats.misses
      (if stats.misses = 1 then "" else "es")
      jobs
      (if jobs = 1 then "" else "s")
      wall_s;
  let results =
    Array.to_list
      (Array.map
         (function Some o -> o | None -> assert false)
         outcomes)
  in
  (results, stats)

let run_and_print ?jobs ?cache scenarios =
  let _, stats =
    run ?jobs ?cache
      ~on_outcome:(fun o ->
        print_string o.output;
        flush Stdlib.stdout)
      scenarios
  in
  stats
